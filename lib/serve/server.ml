module J = Crs_util.Stable_json
module Registry = Crs_algorithms.Registry
module Trace = Crs_obs.Trace
module Hist = Crs_obs.Hist

type config = {
  workers : int;
  queue : int;
  cache_capacity : int;
  default_fuel : int option;
  max_fuel : int option;
  max_conns : int;
  backlog : int;
  idle_timeout_s : float;
  drain_grace_s : float;
  max_line_bytes : int;
}

let default_config =
  {
    workers = 2;
    queue = 64;
    cache_capacity = 256;
    default_fuel = Some 5_000_000;
    max_fuel = None;
    max_conns = 64;
    backlog = 128;
    idle_timeout_s = 30.0;
    drain_grace_s = 0.5;
    max_line_bytes = 1 lsl 20;
  }

(* Request kinds the latency histograms are keyed by: solve and
   campaign are the work kinds, stats is its own (operators watch it),
   and hello/shutdown/malformed lines fold into "control". Each kind's
   histogram is a Crs_obs.Hist over microseconds, always on: the
   crs-serve/1 stats response carries latency whether or not an
   operator enabled the metrics registry. *)
let lat_kinds = [| "solve"; "campaign"; "stats"; "control" |]

let lat_index = function
  | "solve" -> 0
  | "campaign" -> 1
  | "stats" -> 2
  | _ -> 3

(* Response status, tracked alongside the payload so stats counters and
   span attributes don't have to re-parse the JSON they just built. *)
type status = Ok_ | Error_ | Timeout_ | Overloaded_ | Not_applicable_

let status_label = function
  | Ok_ -> "ok"
  | Error_ -> "error"
  | Timeout_ -> "timeout"
  | Overloaded_ -> "overloaded"
  | Not_applicable_ -> "not_applicable"

type counters = {
  requests : int Atomic.t;
  ok : int Atomic.t;
  errors : int Atomic.t;
  timeouts : int Atomic.t;
  overloaded : int Atomic.t;
  not_applicable : int Atomic.t;
}

(* Warm-replay progress, exposed in stats so an operator (or the
   balancer's health pings) can watch a restarted shard refill its memo
   cache. All zeros with [finished] set when no warm state is
   configured. *)
type warm_counters = {
  w_entries : int Atomic.t;
  w_replayed : int Atomic.t;
  w_failed : int Atomic.t;
  w_finished : bool Atomic.t;
}

type t = {
  config : config;
  admission : Admission.t;
  cache : (status * (string * string) list) Canon.Cache.t;
  stop : bool Atomic.t;
  c : counters;
  front : Frontend.t;
  warm : warm_counters;
  (* Drain hook: runs exactly once, inside the first [drain] call,
     BEFORE the executor shuts down — the cache is final (no worker can
     publish a late entry after readers quiesced) and the process is
     still fully alive, which is when a warm-state snapshot is sound. *)
  mutable on_drain : (t -> unit) option;
  drain_hook_fired : bool Atomic.t;
  lat : Hist.t array; (* indexed by lat_index *)
}

let create config =
  let stop = Atomic.make false in
  {
    config;
    admission = Admission.create ~queue:config.queue ~workers:config.workers;
    cache = Canon.Cache.create ~capacity:config.cache_capacity;
    stop;
    c =
      {
        requests = Atomic.make 0;
        ok = Atomic.make 0;
        errors = Atomic.make 0;
        timeouts = Atomic.make 0;
        overloaded = Atomic.make 0;
        not_applicable = Atomic.make 0;
      };
    front =
      Frontend.create
        {
          Frontend.max_conns = config.max_conns;
          idle_timeout_s = config.idle_timeout_s;
          drain_grace_s = config.drain_grace_s;
          max_line_bytes = config.max_line_bytes;
        }
        ~stopping:(fun () -> Atomic.get stop);
    warm =
      {
        w_entries = Atomic.make 0;
        w_replayed = Atomic.make 0;
        w_failed = Atomic.make 0;
        w_finished = Atomic.make true;
      };
    on_drain = None;
    drain_hook_fired = Atomic.make false;
    lat = Array.map (fun _ -> Hist.create ()) lat_kinds;
  }

let stopping t = Atomic.get t.stop
let set_on_drain t f = t.on_drain <- Some f
let cache_keys t = Canon.Cache.keys t.cache

let warm_begin t ~entries =
  Atomic.set t.warm.w_entries entries;
  Atomic.set t.warm.w_replayed 0;
  Atomic.set t.warm.w_failed 0;
  Atomic.set t.warm.w_finished false

let warm_note t ~ok =
  Atomic.incr (if ok then t.warm.w_replayed else t.warm.w_failed)

let warm_finish t = Atomic.set t.warm.w_finished true

let drain t =
  (* The hook fires on the first drain only; a failing hook must never
     leave the executor running, so it reports to stderr instead of
     escaping. *)
  (if Atomic.compare_and_set t.drain_hook_fired false true then
     match t.on_drain with
     | Some f -> (
       try f t
       with exn ->
         Printf.eprintf "crsched serve: on_drain hook failed: %s\n%!"
           (Printexc.to_string exn))
     | None -> ());
  Admission.drain t.admission

let count t status =
  Atomic.incr t.c.requests;
  Atomic.incr
    (match status with
    | Ok_ -> t.c.ok
    | Error_ -> t.c.errors
    | Timeout_ -> t.c.timeouts
    | Overloaded_ -> t.c.overloaded
    | Not_applicable_ -> t.c.not_applicable)

let lat_json h =
  J.obj
    [
      ("count", J.int (Hist.count h));
      ("p50_us", J.int (Hist.quantile_upper h 0.50));
      ("p99_us", J.int (Hist.quantile_upper h 0.99));
      ("max_us", J.int (Hist.max h));
    ]

let stats_payload t =
  [
    ("status", J.str "ok");
    ("requests", J.int (Atomic.get t.c.requests));
    ("ok", J.int (Atomic.get t.c.ok));
    ("errors", J.int (Atomic.get t.c.errors));
    ("timeouts", J.int (Atomic.get t.c.timeouts));
    ("overloaded", J.int (Atomic.get t.c.overloaded));
    ("not_applicable", J.int (Atomic.get t.c.not_applicable));
    ( "cache",
      J.obj
        [
          ("capacity", J.int (Canon.Cache.capacity t.cache));
          ("size", J.int (Canon.Cache.size t.cache));
          ("hits", J.int (Canon.Cache.hits t.cache));
          ("misses", J.int (Canon.Cache.misses t.cache));
          ("evictions", J.int (Canon.Cache.evictions t.cache));
        ] );
    ("workers", J.int (Admission.workers t.admission));
    ("queue", J.int (Admission.queue_capacity t.admission));
    (* Per-request-kind server-side latency (parse to response
       assembly, queue wait included), log2-bucketed: the numbers the
       bench's per-kind p99 regression gates read. Additive in
       crs-serve/1. *)
    ( "latency",
      J.obj
        (Array.to_list
           (Array.mapi (fun i kind -> (kind, lat_json t.lat.(i))) lat_kinds)) );
    (* Connection lifecycle (additive): how many peers the concurrent
       frontend let in, turned away, or forcibly closed. *)
    ("connections", Frontend.connections_json t.front);
    (* Executor saturation (additive in crs-serve/1): live backlog,
       per-worker deque depths, and lifetime push/steal/park counts —
       what an operator watches to see whether load shedding is about
       overload or a stuck worker. *)
    ( "exec",
      let s = Crs_exec.Exec.stats (Admission.executor t.admission) in
      J.obj
        [
          ("workers", J.int s.Crs_exec.Exec.workers);
          ("queued", J.int s.Crs_exec.Exec.queued);
          ("injected", J.int s.Crs_exec.Exec.injected);
          ( "depths",
            J.arr (Array.to_list (Array.map J.int s.Crs_exec.Exec.depths)) );
          ("pushes", J.int s.Crs_exec.Exec.pushes);
          ("steals", J.int s.Crs_exec.Exec.steals);
          ("parks", J.int s.Crs_exec.Exec.parks);
        ] );
    (* Warm-replay progress (additive in crs-serve/1): how far a
       restarted server has got replaying its persisted canonical-key
       set (crs-warm/1) through the real solve path. All zeros with
       [done] true when no warm state is configured. *)
    ( "warm",
      J.obj
        [
          ("entries", J.int (Atomic.get t.warm.w_entries));
          ("replayed", J.int (Atomic.get t.warm.w_replayed));
          ("failed", J.int (Atomic.get t.warm.w_failed));
          ("done", J.bool (Atomic.get t.warm.w_finished));
        ] );
  ]

(* ---- solve ---- *)

(* With "certify":true, a witness is re-checked by the independent
   certifier before it is answered: feasibility, job order, completion
   and the claimed makespan, re-derived from the schedule alone.
   Makespan-only outcomes pass unaudited. *)
let audit (s : Protocol.solve) instance (outcome : Registry.outcome) =
  match outcome.schedule with
  | Some schedule when s.certify -> (
    match Crs_fuzz.Certify.check instance schedule ~claimed:outcome.makespan with
    | Ok _ -> Ok ()
    | Error msg ->
      Error (Printf.sprintf "%s failed certification: %s" s.algorithm msg))
  | _ -> Ok ()

let solve_fuel t (s : Protocol.solve) =
  match s.fuel with Some _ as f -> f | None -> t.config.default_fuel

(* The answer is computed on the canonical form — witness included — so
   canonically equivalent requests produce byte-identical payloads (and
   share one cache entry). *)
let do_solve t (s : Protocol.solve) =
  let canonical = Canon.canonicalize s.instance in
  let key = Crs_core.Instance.to_string canonical in
  let canon_digest = Digest.to_hex (Digest.string key) in
  let fuel = solve_fuel t s in
  let cache_key =
    Canon.Solve_key.to_string
      {
        Canon.Solve_key.algorithm = s.algorithm;
        fuel;
        witness = s.witness;
        certify = s.certify;
        canon = key;
      }
  in
  let cached =
    if s.cache then Canon.Cache.find t.cache cache_key else None
  in
  match cached with
  | Some (status, payload) ->
    Trace.add_attrs [ ("cache", Trace.Str "hit") ];
    (status, payload)
  | None ->
    Trace.add_attrs [ ("cache", Trace.Str (if s.cache then "miss" else "off")) ];
    let result =
      match Registry.find s.algorithm with
      | None ->
        ( Error_,
          Protocol.error
            (Printf.sprintf "unknown algorithm %S (valid: %s)" s.algorithm
               (String.concat ", " Registry.names)) )
      | Some solver -> (
        match Registry.run ?fuel solver canonical with
        | Ok outcome -> (
          match audit s canonical outcome with
          | Error msg -> (Error_, Protocol.error msg)
          | Ok () ->
            Trace.add_attrs
              [ ("fuel_ticks", Trace.Int outcome.counters.fuel_ticks) ];
            ( Ok_,
              Protocol.ok_solve ~algorithm:s.algorithm
                ~makespan:outcome.makespan
                ~schedule:(if s.witness then outcome.schedule else None)
                ~counters:outcome.counters ~canon_digest ))
        | Error (Registry.Inapplicable reason) ->
          (Not_applicable_, Protocol.not_applicable reason)
        | Error (Registry.Timeout ticks) ->
          Trace.add_attrs [ ("fuel_ticks", Trace.Int ticks) ];
          ( Timeout_,
            Protocol.timeout ~fuel:(Option.get fuel) ~fuel_ticks:ticks )
        | exception exn -> (Error_, Protocol.error (Printexc.to_string exn)))
    in
    (* Timeouts are cached too: re-running out the same budget on the
       same instance is the most expensive way to repeat an answer. *)
    (match result with
    | (Ok_ | Timeout_ | Not_applicable_), _ when s.cache ->
      Canon.Cache.add t.cache cache_key result
    | _ -> ());
    result

let do_campaign spec =
  match Crs_campaign.Runner.run ~domains:1 spec with
  | records ->
    let summary = Crs_campaign.Report.summarize records in
    (Ok_, Protocol.ok_campaign summary)
  | exception exn -> (Error_, Protocol.error (Printexc.to_string exn))

(* ---- batches ---- *)

type item = { id : int option; req_kind : string; line_index : int }

(* The operator's fuel ceiling, checked before any work: a budget above
   it, or none at all, is refused. *)
let within_ceiling t fuel work =
  match t.config.max_fuel with
  | Some max_fuel when (match fuel with Some f -> f > max_fuel | None -> true)
    ->
    (Error_, Protocol.fuel_refused ~fuel ~max_fuel)
  | _ -> work ()

let do_work t (item, req) =
  let attrs =
    [
      ("kind", Trace.Str item.req_kind);
      (match req with
      | Protocol.Solve s -> ("algorithm", Trace.Str s.algorithm)
      | _ -> ("algorithm", Trace.Str "-"));
    ]
  in
  Trace.with_span ~attrs "serve.request" (fun () ->
      let status, payload =
        match req with
        | Protocol.Solve s ->
          within_ceiling t (solve_fuel t s) (fun () -> do_solve t s)
        | Protocol.Campaign spec ->
          within_ceiling t spec.fuel (fun () -> do_campaign spec)
        | _ -> assert false (* only work kinds reach the pool *)
      in
      Trace.add_attrs [ ("status", Trace.Str (status_label status)) ];
      (status, payload))

let shed_work (item, _req) =
  ignore item;
  (Overloaded_, Protocol.overloaded ())

let process_batch t lines =
  (* One receive timestamp for the whole batch: a request's latency is
     receive-to-response-assembly, so queue wait behind its batchmates
     (and behind other connections' work) is charged to it — the number
     a client would experience, not just solver time. *)
  let t0 = Crs_obs.Clock.monotonic_ns () in
  let lines =
    List.filter (fun l -> String.trim l <> "") lines
  in
  let parsed =
    List.mapi (fun i line -> (i, Protocol.parse line)) lines
  in
  (* Work requests go through admission on the pool; everything else is
     answered inline afterwards, so a stats request reports the solves
     that arrived in the same batch. *)
  let work =
    List.filter_map
      (fun (i, (p : Protocol.parsed)) ->
        match p.body with
        | Ok ((Protocol.Solve _ | Protocol.Campaign _) as req) ->
          Some
            ( { id = p.id; req_kind = Protocol.kind_of_request req; line_index = i },
              req )
        | _ -> None)
      parsed
  in
  let work = Array.of_list work in
  let work_results = Admission.map t.admission ~f:(do_work t) ~shed:shed_work work in
  let by_line = Hashtbl.create 16 in
  Array.iteri
    (fun j result ->
      let item, _ = work.(j) in
      Hashtbl.replace by_line item.line_index result)
    work_results;
  let answer (i, (p : Protocol.parsed)) =
    let status, req_kind, payload =
      match p.body with
      | Error msg -> (Error_, "unknown", Protocol.error msg)
      | Ok Protocol.Hello ->
        (Ok_, "hello", Protocol.ok_hello ~algorithms:Registry.names)
      | Ok Protocol.Stats -> (Ok_, "stats", stats_payload t)
      | Ok Protocol.Shutdown ->
        Atomic.set t.stop true;
        (Ok_, "shutdown", [ ("status", J.str "ok"); ("stopping", J.bool true) ])
      | Ok ((Protocol.Solve _ | Protocol.Campaign _) as req) ->
        let status, payload = Hashtbl.find by_line i in
        (status, Protocol.kind_of_request req, payload)
    in
    count t status;
    let response = Protocol.respond ~id:p.id ~req:req_kind payload in
    let dt_us =
      Int64.to_int
        (Int64.div (Int64.sub (Crs_obs.Clock.monotonic_ns ()) t0) 1000L)
    in
    Hist.observe t.lat.(lat_index req_kind) dt_us;
    response
  in
  List.map answer parsed

let handle_line t line =
  match process_batch t [ line ] with
  | [ response ] -> response
  | _ -> Protocol.respond ~id:None ~req:"unknown" (Protocol.error "empty request")

(* ---- streams ---- *)

let session t () =
  {
    Frontend.handle = process_batch t;
    refuse = Frontend.draining;
    close = ignore;
  }

(* Single-stream mode (stdio, tests): no idle eviction, since an
   interactive pipeline may think arbitrarily long, and no drain grace,
   so a shutdown request ends the session once its response is written. *)
let serve_io t ~input ~output =
  Frontend.serve_io t.front (session t ()) ~input ~output

let attach t fd = Frontend.attach t.front (session t) fd
let serve t fd = Frontend.serve t.front (session t) fd

(* ---- sockets ---- *)

type address = Unix_sock of string | Tcp of string * int

let address_to_string = function
  | Unix_sock path -> "unix:" ^ path
  | Tcp (host, port) -> Printf.sprintf "tcp:%s:%d" host port

let parse_address s =
  let fail () =
    Error
      (Printf.sprintf
         "unrecognized listen address %S (expected unix:PATH or tcp:HOST:PORT)"
         s)
  in
  match String.index_opt s ':' with
  | None -> fail ()
  | Some i -> (
    let scheme = String.sub s 0 i in
    let rest = String.sub s (i + 1) (String.length s - i - 1) in
    match scheme with
    | "unix" -> if rest = "" then fail () else Ok (Unix_sock rest)
    | "tcp" -> (
      match String.rindex_opt rest ':' with
      | None -> fail ()
      | Some j -> (
        let host = String.sub rest 0 j in
        let port_s = String.sub rest (j + 1) (String.length rest - j - 1) in
        match int_of_string_opt port_s with
        | Some port when host <> "" && port >= 0 && port <= 65535 ->
          Ok (Tcp (host, port))
        | _ -> fail ()))
    | _ -> fail ())

let bind_address ?(backlog = default_config.backlog) addr =
  let describe e =
    Printf.sprintf "cannot bind %s: %s" (address_to_string addr)
      (Unix.error_message e)
  in
  match addr with
  | Unix_sock path -> (
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (* Subprocesses (the balancer's shard workers) must not inherit the
       listening socket. *)
    Unix.set_close_on_exec fd;
    (* Deliberately no unlink: an existing path means another daemon (or
       stale state the operator should look at) and must surface as a
       bind failure, not be clobbered. *)
    match
      Unix.bind fd (Unix.ADDR_UNIX path);
      Unix.listen fd backlog
    with
    | () -> Ok fd
    | exception Unix.Unix_error (e, _, _) ->
      Unix.close fd;
      Error (describe e))
  | Tcp (host, port) -> (
    match
      try Unix.inet_addr_of_string host
      with _ -> (Unix.gethostbyname host).Unix.h_addr_list.(0)
    with
    | exception _ ->
      Error
        (Printf.sprintf "cannot bind %s: unknown host %S"
           (address_to_string addr) host)
    | inet -> (
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.set_close_on_exec fd;
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      match
        Unix.bind fd (Unix.ADDR_INET (inet, port));
        Unix.listen fd backlog
      with
      | () -> Ok fd
      | exception Unix.Unix_error (e, _, _) ->
        Unix.close fd;
        Error (describe e)))

let close_address addr fd =
  (try Unix.close fd with Unix.Unix_error _ -> ());
  match addr with
  | Unix_sock path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | Tcp _ -> ()
