(* Process-sharded serve tier behind one public listen address.

   The balancer forks/execs N `crsched serve` shard workers on private
   Unix sockets, accepts client connections on the shared Frontend, and
   routes each work request by rendezvous hash of its canonical key —
   so canonically equivalent instances always land on the same shard's
   memo cache and the byte-identity guarantee survives sharding.
   Robustness model:

   - a monitor thread reaps dead workers and respawns them with
     exponential backoff (stale sockets unlinked first);
   - a health thread pings every shard's `stats` on an interval;
   - a request whose shard is unreachable (crashed, restarting) is
     answered with a structured `overloaded` refusal naming the shard —
     never dropped, never blocked on a corpse;
   - shard-produced responses (including `overloaded`/`draining`) are
     relayed byte-for-byte;
   - a `shutdown` request drains the whole tier: every shard is asked
     to shut down (each snapshots its warm state via the drain hook),
     readers refuse latecomers with `draining`, and the balancer reaps
     every worker before returning. *)

module J = Crs_util.Stable_json
module Registry = Crs_algorithms.Registry
module Trace = Crs_obs.Trace
module Metrics = Crs_obs.Metrics
module Lines = Frontend.Lines

type config = {
  shards : int;
  socket_dir : string;
  shard_argv : index:int -> socket:string -> string array;
  health_interval_s : float;
  restart_backoff_s : float;
  restart_backoff_max_s : float;
  connect_timeout_s : float;
  rpc_timeout_s : float;
  drain_grace_s : float;
  max_line_bytes : int;
  max_conns : int;
}

let shard_socket ~socket_dir index =
  Filename.concat socket_dir (Printf.sprintf "shard-%d.sock" index)

let default_config ~shards ~socket_dir ~shard_argv =
  {
    shards;
    socket_dir;
    shard_argv;
    health_interval_s = 1.0;
    restart_backoff_s = 0.05;
    restart_backoff_max_s = 2.0;
    connect_timeout_s = 10.0;
    rpc_timeout_s = 30.0;
    drain_grace_s = 0.5;
    max_line_bytes = 1 lsl 20;
    max_conns = 64;
  }

(* ---- routing ---- *)

(* Rendezvous (highest-random-weight) hashing: every shard scores
   MD5(key "#" index) and the highest digest wins. Deterministic — a
   pure function of (key, shard count), so the same canonical key maps
   to the same shard across balancer restarts — and minimally
   disruptive: changing the shard count only remaps the keys whose
   winner changed. *)
let route ~shards key =
  if shards <= 1 then 0
  else begin
    let best = ref 0 and best_score = ref "" in
    for i = 0 to shards - 1 do
      let score = Digest.string (Printf.sprintf "%s#%d" key i) in
      if i = 0 || String.compare score !best_score > 0 then begin
        best := i;
        best_score := score
      end
    done;
    !best
  end

(* ---- shard state ---- *)

type shard = {
  index : int;
  socket : string;
  lock : Mutex.t;  (* guards pid and respawn *)
  mutable pid : int;  (* 0 = not running / already reaped *)
  alive : bool Atomic.t;  (* socket believed accept-ready *)
  restarts : int Atomic.t;
  routed : int Atomic.t;
  pings_ok : int Atomic.t;
  pings_failed : int Atomic.t;
}

type t = {
  cfg : config;
  shards : shard array;
  stop : bool Atomic.t;
  (* Request accounting, the restart-under-load invariant: every request
     line read from a client increments [accepted] and exactly one of
     [answered] (a real response, relayed or locally produced) or
     [refused] (a balancer-generated structured refusal). *)
  accepted : int Atomic.t;
  answered : int Atomic.t;
  refused : int Atomic.t;
  front : Frontend.t;
  m_routed : Metrics.counter;
  m_answered : Metrics.counter;
  m_refused : Metrics.counter;
  m_restarts : Metrics.counter;
  mutable monitor : Thread.t option;
  mutable health : Thread.t option;
}

let stopping t = Atomic.get t.stop
let shard_pids t = Array.map (fun sh -> sh.pid) t.shards

(* ---- worker processes ---- *)

let spawn_shard cfg sh =
  (* A crashed worker leaves its socket path behind, and `crsched serve`
     refuses to clobber an existing path — the balancer owns this
     directory, so it unlinks before every (re)spawn. *)
  (try Unix.unlink sh.socket with Unix.Unix_error _ -> ());
  let argv = cfg.shard_argv ~index:sh.index ~socket:sh.socket in
  let dev_null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close dev_null)
      (fun () ->
        Unix.create_process argv.(0) argv dev_null Unix.stdout Unix.stderr)
  in
  sh.pid <- pid

let try_connect sh =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (* Respawned workers must not inherit the balancer's sockets: a shard
     holding a duplicate of a client (or sibling-shard) fd would keep
     the connection from ever reaching EOF. *)
  Unix.set_close_on_exec fd;
  match Unix.connect fd (Unix.ADDR_UNIX sh.socket) with
  | () -> Some fd
  | exception Unix.Unix_error (_, _, _) ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    None

(* Ready = the socket accepts a connection. The shard may still be
   replaying warm state behind its listen backlog; that's fine — it is
   reachable, and requests queue until the replay finishes. *)
let wait_ready cfg sh =
  let deadline = Frontend.now_s () +. cfg.connect_timeout_s in
  let rec go () =
    match try_connect sh with
    | Some fd ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Atomic.set sh.alive true;
      true
    | None ->
      if Frontend.now_s () >= deadline then false
      else begin
        Thread.delay 0.02;
        go ()
      end
  in
  go ()

(* One request/response exchange on a fresh connection (health pings,
   stats aggregation, the tier-drain shutdown). *)
let rpc_once ?(timeout_s = 5.0) sh line =
  match try_connect sh with
  | None -> Error "unreachable"
  | Some fd ->
    let conn = Lines.of_fd fd in
    Fun.protect
      ~finally:(fun () -> Lines.close conn)
      (fun () ->
        match Lines.send_line conn line with
        | () -> (
          match Lines.recv_line ~timeout_s conn with
          | Some response -> Ok response
          | None -> Error "no response")
        | exception Unix.Unix_error (e, _, _) ->
          Error (Unix.error_message e))

let stats_line =
  J.obj [ ("proto", J.str Protocol.version); ("kind", J.str "stats") ]

let shutdown_line =
  J.obj [ ("proto", J.str Protocol.version); ("kind", J.str "shutdown") ]

(* ---- monitor: reap and restart dead workers ---- *)

let monitor_loop t =
  let backoff = Array.map (fun _ -> t.cfg.restart_backoff_s) t.shards in
  while not (stopping t) do
    Array.iter
      (fun sh ->
        Mutex.lock sh.lock;
        let pid = sh.pid in
        Mutex.unlock sh.lock;
        if pid > 0 then begin
          match Unix.waitpid [ Unix.WNOHANG ] pid with
          | 0, _ -> ()
          | _, _ ->
            (* The worker died. Exponential backoff before the respawn:
               doubles on every death, resets once a respawn comes up
               ready — a crash-looping shard cannot spin the tier. *)
            Atomic.set sh.alive false;
            Mutex.lock sh.lock;
            sh.pid <- 0;
            Mutex.unlock sh.lock;
            if not (stopping t) then begin
              Thread.delay backoff.(sh.index);
              if not (stopping t) then begin
                Mutex.lock sh.lock;
                spawn_shard t.cfg sh;
                Mutex.unlock sh.lock;
                Atomic.incr sh.restarts;
                Metrics.incr t.m_restarts;
                if wait_ready t.cfg sh then
                  backoff.(sh.index) <- t.cfg.restart_backoff_s
                else
                  backoff.(sh.index) <-
                    Float.min
                      (2.0 *. backoff.(sh.index))
                      t.cfg.restart_backoff_max_s
              end
            end
          | exception Unix.Unix_error (Unix.ECHILD, _, _) ->
            Mutex.lock sh.lock;
            sh.pid <- 0;
            Mutex.unlock sh.lock
        end)
      t.shards;
    Thread.delay 0.03
  done

(* ---- health: periodic stats pings ---- *)

let health_loop t =
  while not (stopping t) do
    Array.iter
      (fun sh ->
        if not (stopping t) then
          match rpc_once ~timeout_s:t.cfg.rpc_timeout_s sh stats_line with
          | Ok _ ->
            Atomic.incr sh.pings_ok;
            Atomic.set sh.alive true
          | Error _ ->
            Atomic.incr sh.pings_failed;
            Atomic.set sh.alive false)
      t.shards;
    (* Sleep in slices so a tier drain isn't held up by the interval. *)
    let slept = ref 0.0 in
    while (not (stopping t)) && !slept < t.cfg.health_interval_s do
      Thread.delay 0.05;
      slept := !slept +. 0.05
    done
  done

(* ---- lifecycle ---- *)

let create (cfg : config) =
  if cfg.shards < 1 then Error "balancer: shards must be >= 1"
  else begin
    (try Unix.mkdir cfg.socket_dir 0o755
     with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    let shards =
      Array.init cfg.shards (fun index ->
          {
            index;
            socket = shard_socket ~socket_dir:cfg.socket_dir index;
            lock = Mutex.create ();
            pid = 0;
            alive = Atomic.make false;
            restarts = Atomic.make 0;
            routed = Atomic.make 0;
            pings_ok = Atomic.make 0;
            pings_failed = Atomic.make 0;
          })
    in
    let stop = Atomic.make false in
    let t =
      {
        cfg;
        shards;
        stop;
        accepted = Atomic.make 0;
        answered = Atomic.make 0;
        refused = Atomic.make 0;
        (* The frontend also ignores SIGPIPE: shard connections die
           under us by design (that is what the monitor is for). The
           idle deadline is serve's default; there is no flag for it. *)
        front =
          Frontend.create ~name:"balancer"
            {
              Frontend.max_conns = cfg.max_conns;
              idle_timeout_s = Server.default_config.Server.idle_timeout_s;
              drain_grace_s = cfg.drain_grace_s;
              max_line_bytes = cfg.max_line_bytes;
            }
            ~stopping:(fun () -> Atomic.get stop);
        m_routed = Metrics.counter "balancer.routed";
        m_answered = Metrics.counter "balancer.answered";
        m_refused = Metrics.counter "balancer.refused";
        m_restarts = Metrics.counter "balancer.restarts";
        monitor = None;
        health = None;
      }
    in
    Array.iter (fun sh -> spawn_shard cfg sh) shards;
    let late =
      Array.to_list shards
      |> List.filter (fun sh -> not (wait_ready cfg sh))
      |> List.map (fun sh -> sh.index)
    in
    match late with
    | [] ->
      t.monitor <- Some (Thread.create monitor_loop t);
      t.health <- Some (Thread.create health_loop t);
      Ok t
    | _ ->
      (* Startup failed: kill whatever came up and report which shards
         never answered. *)
      Atomic.set t.stop true;
      Array.iter
        (fun sh ->
          if sh.pid > 0 then begin
            (try Unix.kill sh.pid Sys.sigkill with Unix.Unix_error _ -> ());
            (try ignore (Unix.waitpid [] sh.pid)
             with Unix.Unix_error _ -> ());
            try Unix.unlink sh.socket with Unix.Unix_error _ -> ()
          end)
        shards;
      Error
        (Printf.sprintf
           "balancer: shard(s) %s not accepting connections within %.1fs"
           (String.concat ", " (List.map string_of_int late))
           cfg.connect_timeout_s)
  end

(* Tier-wide drain entry: flip stopping, then ask every shard to shut
   down (each answers its own connections, fires its drain hook — warm
   snapshot — and exits; the monitor stops respawning because stopping
   is already set). *)
let begin_drain t =
  if Atomic.compare_and_set t.stop false true then
    Array.iter
      (fun sh ->
        ignore (rpc_once ~timeout_s:t.cfg.rpc_timeout_s sh shutdown_line))
      t.shards

let reap t =
  Array.iter
    (fun sh ->
      Mutex.lock sh.lock;
      let pid = sh.pid in
      Mutex.unlock sh.lock;
      if pid > 0 then begin
        (* Grace, then escalate: a worker that ignores its shutdown
           response for this long is wedged. *)
        let deadline = Frontend.now_s () +. 10.0 in
        let rec wait signalled =
          match Unix.waitpid [ Unix.WNOHANG ] pid with
          | 0, _ ->
            if Frontend.now_s () >= deadline then begin
              (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
              try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()
            end
            else begin
              if (not signalled) && Frontend.now_s () >= deadline -. 5.0
              then begin
                (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
                Thread.delay 0.05;
                wait true
              end
              else begin
                Thread.delay 0.05;
                wait signalled
              end
            end
          | _, _ -> ()
          | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
        in
        wait false;
        Mutex.lock sh.lock;
        sh.pid <- 0;
        Mutex.unlock sh.lock
      end;
      (* Workers unlink their sockets on clean exit; clear leftovers. *)
      try Unix.unlink sh.socket with Unix.Unix_error _ -> ())
    t.shards

let drain t =
  begin_drain t;
  (match t.monitor with Some th -> Thread.join th | None -> ());
  (match t.health with Some th -> Thread.join th | None -> ());
  t.monitor <- None;
  t.health <- None;
  reap t

(* ---- stats aggregation ---- *)

let member_int name json =
  match J.member name json with Some (J.Int i) -> Some i | _ -> None

let stats_payload t =
  (* Live aggregation: ask every shard for its stats right now, sum the
     tier-wide counters, and carry each shard's warm progress through
     verbatim. A shard that cannot answer shows up as alive:false with
     its balancer-side counters only. *)
  let fetched =
    Array.map
      (fun sh ->
        match rpc_once ~timeout_s:t.cfg.rpc_timeout_s sh stats_line with
        | Ok line -> (sh, Result.to_option (J.parse line))
        | Error _ -> (sh, None))
      t.shards
  in
  let sum path =
    Array.fold_left
      (fun acc (_, json) ->
        match json with
        | None -> acc
        | Some j -> (
          match path j with Some v -> acc + v | None -> acc))
      0 fetched
  in
  let top name = member_int name in
  let nested outer inner j = Option.bind (J.member outer j) (member_int inner) in
  let shard_json (sh, json) =
    let passthrough =
      match json with
      | None -> []
      | Some j ->
        [
          ("requests", J.int (Option.value ~default:0 (top "requests" j)));
          ( "cache",
            J.obj
              [
                ("hits", J.int (Option.value ~default:0 (nested "cache" "hits" j)));
                ( "misses",
                  J.int (Option.value ~default:0 (nested "cache" "misses" j)) );
              ] );
          ( "warm",
            match J.member "warm" j with
            | Some w -> J.to_string w
            | None -> J.obj [] );
        ]
    in
    J.obj
      ([
         ("index", J.int sh.index);
         ("alive", J.bool (Atomic.get sh.alive));
         ("pid", J.int sh.pid);
         ("restarts", J.int (Atomic.get sh.restarts));
         ("routed", J.int (Atomic.get sh.routed));
         ("pings_ok", J.int (Atomic.get sh.pings_ok));
         ("pings_failed", J.int (Atomic.get sh.pings_failed));
       ]
      @ passthrough)
  in
  [
    ("status", J.str "ok");
    ("shards", J.int t.cfg.shards);
    ("requests", J.int (sum (top "requests")));
    ("ok", J.int (sum (top "ok")));
    ("errors", J.int (sum (top "errors")));
    ("timeouts", J.int (sum (top "timeouts")));
    ("overloaded", J.int (sum (top "overloaded")));
    ("not_applicable", J.int (sum (top "not_applicable")));
    ( "cache",
      J.obj
        [
          ("hits", J.int (sum (nested "cache" "hits")));
          ("misses", J.int (sum (nested "cache" "misses")));
        ] );
    ( "balancer",
      J.obj
        [
          ("accepted", J.int (Atomic.get t.accepted));
          ("answered", J.int (Atomic.get t.answered));
          ("refused", J.int (Atomic.get t.refused));
          ( "restarts",
            J.int
              (Array.fold_left
                 (fun acc sh -> acc + Atomic.get sh.restarts)
                 0 t.shards) );
          ("connections", Frontend.connections_json t.front);
          ("shard", J.arr (Array.to_list (Array.map shard_json fetched)));
        ] );
  ]

(* ---- request handling ---- *)

(* Per-client lazily-opened shard connections: one client's requests to
   one shard share a pipeline (order within the pair is preserved
   because the session is serial), and a failed connection is dropped so
   the next request reconnects — which is how a restarted shard comes
   back into rotation. *)
type session_conns = Lines.t option array

let shard_rpc t (conns : session_conns) sh line =
  let attempt () =
    let conn =
      match conns.(sh.index) with
      | Some c -> Some c
      | None -> (
        match try_connect sh with
        | Some fd ->
          let c = Lines.of_fd fd in
          conns.(sh.index) <- Some c;
          Some c
        | None -> None)
    in
    match conn with
    | None -> None
    | Some c -> (
      match
        Lines.send_line c line;
        Lines.recv_line ~timeout_s:t.cfg.rpc_timeout_s c
      with
      | Some response -> Some response
      | None | (exception Unix.Unix_error (_, _, _)) ->
        Lines.close c;
        conns.(sh.index) <- None;
        None)
  in
  (* One retry on a fresh connection: solve and campaign requests are
     deterministic (idempotent), and the shard may have just finished
     restarting. *)
  match attempt () with Some r -> Some r | None -> attempt ()

let shard_unavailable ~index =
  [
    ("status", J.str "overloaded");
    ( "error",
      J.str
        (Printf.sprintf "shard %d unavailable (restarting); retry" index) );
  ]

let handle_request t (conns : session_conns) line =
  Atomic.incr t.accepted;
  let p = Protocol.parse line in
  let answer ~req payload =
    Atomic.incr t.answered;
    Metrics.incr t.m_answered;
    Protocol.respond ~id:p.Protocol.id ~req payload
  in
  let forward ~req ~key =
    let idx = route ~shards:t.cfg.shards key in
    let sh = t.shards.(idx) in
    Atomic.incr sh.routed;
    Metrics.incr t.m_routed;
    Trace.with_span
      ~attrs:[ ("kind", Trace.Str req); ("shard", Trace.Int idx) ]
      "balancer.route"
      (fun () ->
        match shard_rpc t conns sh line with
        | Some response ->
          Atomic.incr t.answered;
          Metrics.incr t.m_answered;
          response
        | None ->
          Atomic.incr t.refused;
          Metrics.incr t.m_refused;
          Protocol.respond ~id:p.Protocol.id ~req (shard_unavailable ~index:idx))
  in
  match p.Protocol.body with
  | Error msg -> answer ~req:"unknown" (Protocol.error msg)
  | Ok Protocol.Hello ->
    (* Answered at the front: the handshake is shard-independent. *)
    answer ~req:"hello" (Protocol.ok_hello ~algorithms:Registry.names)
  | Ok Protocol.Stats ->
    (* Counted answered *before* the snapshot is taken, so the payload a
       client reads satisfies accepted = answered + refused with its own
       request included — no perpetual off-by-one in the invariant. *)
    Atomic.incr t.answered;
    Metrics.incr t.m_answered;
    Protocol.respond ~id:p.Protocol.id ~req:"stats" (stats_payload t)
  | Ok Protocol.Shutdown ->
    begin_drain t;
    answer ~req:"shutdown"
      [ ("status", J.str "ok"); ("stopping", J.bool true) ]
  | Ok (Protocol.Solve s) ->
    (* THE routing decision: the canonical key, so every member of an
       equivalence class shares one shard's LRU. *)
    forward ~req:"solve" ~key:(Canon.key s.instance)
  | Ok (Protocol.Campaign _) ->
    (* No canonical form; any deterministic spread works. *)
    forward ~req:"campaign" ~key:("campaign#" ^ Digest.to_hex (Digest.string line))

(* ---- client sessions ---- *)

let session t () =
  let conns : session_conns = Array.make t.cfg.shards None in
  {
    Frontend.handle = List.map (handle_request t conns);
    refuse =
      (fun line ->
        (* Same accounting rule as any other request: read, counted,
           refused with structure. *)
        Atomic.incr t.accepted;
        Atomic.incr t.refused;
        Metrics.incr t.m_refused;
        Frontend.draining line);
    close = (fun () -> Array.iter (Option.iter Lines.close) conns);
  }

let attach t fd = Frontend.attach t.front (session t) fd
let serve t fd = Frontend.serve t.front (session t) fd
