(* crs_serve: canonicalizer oracle tests, the LRU memo cache, protocol
   strictness, fuel deadlines, and an in-tree daemon smoke test over a
   socketpair — so serve regressions fail tier-1. *)

module Q = Crs_num.Rational
open Crs_core
module Canon = Crs_serve.Canon
module Protocol = Crs_serve.Protocol
module Server = Crs_serve.Server
module Lines = Crs_serve.Frontend.Lines
module J = Crs_util.Stable_json
module R = Crs_algorithms.Registry

let random_instance ?(m = 3) seed =
  let spec =
    { Crs_generators.Random_gen.default_spec with m; jobs_min = 2; jobs_max = 4 }
  in
  Crs_generators.Random_gen.instance ~spec (Random.State.make [| seed |])

(* ---- canonicalizer ---- *)

let test_canon_idempotent () =
  for seed = 1 to 20 do
    let i = random_instance seed in
    let c = Canon.canonicalize i in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: canonicalize idempotent" seed)
      true
      (Instance.equal c (Canon.canonicalize c))
  done

(* Satellite: Canon.key is invariant under exactly the mutations the
   fuzz oracles prove neutral — processor permutation and
   zero-requirement padding (reusing the crs_fuzz helper). *)
let test_canon_key_invariance () =
  for seed = 1 to 40 do
    let i = random_instance seed in
    let m = Instance.m i in
    let reversed = Instance.sub_processors i (List.init m (fun k -> m - 1 - k)) in
    let rotated = Instance.sub_processors i (List.init m (fun k -> (k + 1) mod m)) in
    let padded = Crs_fuzz.Oracle.zero_pad_instance i in
    let padded_reversed = Crs_fuzz.Oracle.zero_pad_instance reversed in
    let key = Canon.key i in
    Alcotest.(check string)
      (Printf.sprintf "seed %d: key invariant under reversal" seed)
      key (Canon.key reversed);
    Alcotest.(check string)
      (Printf.sprintf "seed %d: key invariant under rotation" seed)
      key (Canon.key rotated);
    Alcotest.(check string)
      (Printf.sprintf "seed %d: key invariant under zero-padding" seed)
      key (Canon.key padded);
    Alcotest.(check string)
      (Printf.sprintf "seed %d: key invariant under pad+permute" seed)
      key (Canon.key padded_reversed);
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: equivalent agrees" seed)
      true
      (Canon.equivalent i padded_reversed)
  done

let test_canon_distinguishes () =
  let a = random_instance 1 and b = random_instance 2 in
  Alcotest.(check bool) "different instances, different keys" false
    (Canon.equivalent a b)

let test_canon_padding_only_instance () =
  (* An all-padding instance must keep its rows (makespan 1 ≠ empty). *)
  let padding = Instance.create [| [| Job.unit Q.zero |] |] in
  let c = Canon.canonicalize padding in
  Alcotest.(check int) "padding-only instance keeps its row" 1
    (Instance.total_jobs c)

(* ---- LRU cache ---- *)

let test_cache_lru () =
  let c = Canon.Cache.create ~capacity:2 in
  Canon.Cache.add c "a" 1;
  Canon.Cache.add c "b" 2;
  Alcotest.(check (option int)) "a cached" (Some 1) (Canon.Cache.find c "a");
  (* "b" is now least-recently used; inserting "c" evicts it. *)
  Canon.Cache.add c "c" 3;
  Alcotest.(check (option int)) "b evicted" None (Canon.Cache.find c "b");
  Alcotest.(check (option int)) "a survives" (Some 1) (Canon.Cache.find c "a");
  Alcotest.(check (option int)) "c cached" (Some 3) (Canon.Cache.find c "c");
  Alcotest.(check int) "size" 2 (Canon.Cache.size c);
  Alcotest.(check int) "hits" 3 (Canon.Cache.hits c);
  Alcotest.(check int) "misses" 1 (Canon.Cache.misses c);
  Alcotest.(check int) "evictions" 1 (Canon.Cache.evictions c)

let test_cache_disabled () =
  let c = Canon.Cache.create ~capacity:0 in
  Canon.Cache.add c "a" 1;
  Alcotest.(check (option int)) "capacity 0 never stores" None
    (Canon.Cache.find c "a");
  Alcotest.(check int) "size stays 0" 0 (Canon.Cache.size c)

(* ---- protocol ---- *)

let parse_ok line =
  match (Protocol.parse line).body with
  | Ok req -> req
  | Error msg -> Alcotest.failf "expected Ok, got: %s" msg

let parse_err line =
  match (Protocol.parse line).body with
  | Ok _ -> Alcotest.fail "expected Error"
  | Error msg -> msg

let test_protocol_solve_defaults () =
  match
    parse_ok {|{"proto":"crs-serve/1","kind":"solve","instance":"1/2\n1/3"}|}
  with
  | Protocol.Solve s ->
    Alcotest.(check string) "default algorithm" R.Names.greedy_balance
      s.algorithm;
    Alcotest.(check bool) "witness off" false s.witness;
    Alcotest.(check bool) "cache on" true s.cache;
    Alcotest.(check int) "instance parsed" 2 (Instance.m s.instance)
  | _ -> Alcotest.fail "expected Solve"

let test_protocol_strictness () =
  let msg = parse_err {|{"proto":"crs-serve/0","kind":"hello"}|} in
  Alcotest.(check bool) "proto mismatch names the version" true
    (Helpers.contains ~needle:"crs-serve/1" msg);
  let msg = parse_err {|{"proto":"crs-serve/1","kind":"frobnicate"}|} in
  Alcotest.(check bool) "unknown kind named" true
    (Helpers.contains ~needle:"frobnicate" msg);
  let msg = parse_err {|{"proto":"crs-serve/1","kind":"solve"}|} in
  Alcotest.(check bool) "missing instance named" true
    (Helpers.contains ~needle:"instance" msg);
  let msg = parse_err {|{"kind":"hello"}|} in
  Alcotest.(check bool) "missing proto named" true
    (Helpers.contains ~needle:"proto" msg);
  (* The id survives body-level rejection, so the error is correlatable. *)
  let p = Protocol.parse {|{"proto":"crs-serve/1","id":42,"kind":"nope"}|} in
  Alcotest.(check (option int)) "id recovered from bad body" (Some 42) p.id;
  let msg = parse_err {|{"proto":"crs-serve/1","kind":"hello"} trailing|} in
  Alcotest.(check bool) "trailing garbage carries offset" true
    (Helpers.contains ~needle:"offset" msg)

let test_protocol_campaign_cap () =
  let msg =
    parse_err
      {|{"proto":"crs-serve/1","kind":"campaign","seed_lo":1,"seed_hi":100000,"algorithms":["greedy-balance"]}|}
  in
  Alcotest.(check bool) "oversized campaign rejected with cap" true
    (Helpers.contains ~needle:"cap" msg)

(* ---- server batches (deterministic, no sockets) ---- *)

let with_server config f =
  let server = Server.create config in
  Fun.protect ~finally:(fun () -> Server.drain server) (fun () -> f server)

let small_config =
  {
    Server.default_config with
    Server.workers = 1;
    queue = 8;
    cache_capacity = 16;
    default_fuel = None;
  }

let solve_line ?(extra = []) instance =
  J.obj
    ([
       ("proto", J.str Protocol.version);
       ("kind", J.str "solve");
       ("instance", J.str (Instance.to_string instance));
     ]
    @ extra)

let response_status line =
  match J.parse line with
  | Ok json -> (
    match J.member "status" json with
    | Some (J.Str s) -> s
    | _ -> Alcotest.failf "response without status: %s" line)
  | Error msg -> Alcotest.failf "unparseable response %s: %s" line msg

let test_server_byte_identical_responses () =
  with_server small_config (fun server ->
      let base = random_instance 5 in
      let m = Instance.m base in
      let permuted =
        Instance.sub_processors base (List.init m (fun k -> m - 1 - k))
      in
      let padded = Crs_fuzz.Oracle.zero_pad_instance base in
      let r_base = Server.handle_line server (solve_line base) in
      let r_perm = Server.handle_line server (solve_line permuted) in
      let r_pad = Server.handle_line server (solve_line padded) in
      Alcotest.(check string) "permuted response byte-identical" r_base r_perm;
      Alcotest.(check string) "padded response byte-identical" r_base r_pad;
      (* And again with the cache off: identical because the answer is
         computed on the canonical form, not because it was memoized. *)
      let nocache i = solve_line ~extra:[ ("cache", J.bool false) ] i in
      let r1 = Server.handle_line server (nocache base) in
      let r2 = Server.handle_line server (nocache permuted) in
      Alcotest.(check string) "uncached responses byte-identical" r1 r2)

let test_server_overload_sheds_batch_tail () =
  with_server
    { small_config with Server.queue = 2; cache_capacity = 0 }
    (fun server ->
      let lines =
        List.init 5 (fun i -> solve_line (random_instance (10 + i)))
      in
      let responses = Server.process_batch server lines in
      Alcotest.(check int) "every request answered" 5 (List.length responses);
      let statuses = List.map response_status responses in
      let count s = List.length (List.filter (String.equal s) statuses) in
      Alcotest.(check int) "queue-many solved" 2 (count "ok");
      Alcotest.(check int) "rest shed as overloaded" 3 (count "overloaded");
      (* Admission is per batch, not cumulative: the next batch solves. *)
      let next = Server.process_batch server [ solve_line (random_instance 1) ] in
      Alcotest.(check (list string)) "next batch admitted" [ "ok" ]
        (List.map response_status next))

(* Satellite: a tiny fuel budget on a brute-force solve must come back
   as a structured timeout, with the span recording fuel_ticks at the
   limit — never as an exception or a dropped response. *)
let test_server_fuel_timeout () =
  with_server small_config (fun server ->
      let budget = 3 in
      (* Figure 1's instance costs brute-force 13 ticks unpruned, so a
         3-tick budget deterministically trips Out_of_fuel mid-search. *)
      let line =
        solve_line
          ~extra:
            [ ("algorithm", J.str R.Names.brute_force); ("fuel", J.int budget) ]
          Crs_generators.Adversarial.figure1
      in
      Crs_obs.Trace.reset ();
      Crs_obs.Trace.set_enabled true;
      let response = Server.handle_line server line in
      Crs_obs.Trace.set_enabled false;
      Alcotest.(check string) "structured timeout" "timeout"
        (response_status response);
      (match J.parse response with
      | Ok json ->
        (match J.member "fuel_ticks" json with
        | Some (J.Int ticks) ->
          Alcotest.(check bool)
            (Printf.sprintf "fuel_ticks %d at the limit (budget %d)" ticks
               budget)
            true
            (ticks >= budget && ticks <= budget + 1)
        | _ -> Alcotest.fail "timeout response lacks fuel_ticks");
        (match J.member "fuel" json with
        | Some (J.Int f) -> Alcotest.(check int) "echoes the budget" budget f
        | _ -> Alcotest.fail "timeout response lacks fuel")
      | Error msg -> Alcotest.failf "unparseable timeout response: %s" msg);
      let signature = Crs_obs.Trace.signature () in
      Alcotest.(check bool) "serve.request span recorded" true
        (Helpers.contains ~needle:"serve.request" signature);
      Alcotest.(check bool) "span carries fuel_ticks" true
        (Helpers.contains ~needle:"fuel_ticks" signature);
      Alcotest.(check bool) "span carries timeout status" true
        (Helpers.contains ~needle:"timeout" signature))

(* The flat Opt_two kernel charges fuel per REACHED cell (the tick sits
   after the reachability check), so a solve's exact fuel price is its
   cells_expanded counter: that budget succeeds, one tick fewer is a
   deterministic timeout. The instance keeps the start remainder <= 1,
   so the DP walks the diagonal and most grid cells stay unreachable —
   exactly the cells the hoisted tick stopped charging for. *)
let test_server_fuel_opt_two_pinned () =
  with_server small_config (fun server ->
      let instance =
        Helpers.instance_of_strings [ [ "1/4"; "1/2" ]; [ "1/4"; "1/2" ] ]
      in
      let price =
        (Crs_algorithms.Opt_two.solve instance).counters.cells_expanded
      in
      Alcotest.(check int) "diagonal instance reaches 2 of 8 grid cells" 2 price;
      let status fuel =
        response_status
          (Server.handle_line server
             (solve_line
                ~extra:
                  [ ("algorithm", J.str R.Names.opt_two); ("fuel", J.int fuel) ]
                instance))
      in
      Alcotest.(check string) "one tick under the price times out" "timeout"
        (status (price - 1));
      Alcotest.(check string) "budget = reachable cells solves" "ok"
        (status price))

let test_server_cache_hits () =
  with_server small_config (fun server ->
      let i = random_instance 8 in
      let r1 = Server.handle_line server (solve_line i) in
      let r2 = Server.handle_line server (solve_line i) in
      Alcotest.(check string) "hit answers identically" r1 r2;
      let payload = J.obj (Server.stats_payload server) in
      match J.parse payload with
      | Ok json ->
        let cache_field f =
          match Option.bind (J.member "cache" json) (J.member f) with
          | Some (J.Int v) -> v
          | _ -> Alcotest.failf "stats lack cache.%s" f
        in
        Alcotest.(check int) "one miss" 1 (cache_field "misses");
        Alcotest.(check int) "one hit" 1 (cache_field "hits")
      | Error msg -> Alcotest.failf "stats payload unparseable: %s" msg)

(* Satellite: the crs-serve/1 stats response gained additive executor
   fields (queue depths, steals, parks, workers) so operators can see
   saturation. Everything that existed before must still be there. *)
let test_server_stats_exec_fields () =
  with_server
    { small_config with Server.workers = 2 }
    (fun server ->
      ignore (Server.handle_line server (solve_line (random_instance 3)));
      ignore (Server.handle_line server (solve_line (random_instance 4)));
      let payload = J.obj (Server.stats_payload server) in
      match J.parse payload with
      | Error msg -> Alcotest.failf "stats payload unparseable: %s" msg
      | Ok json ->
        let exec =
          match J.member "exec" json with
          | Some e -> e
          | None -> Alcotest.fail "stats lack the exec object"
        in
        let field f =
          match J.member f exec with
          | Some (J.Int v) -> v
          | _ -> Alcotest.failf "stats lack exec.%s" f
        in
        Alcotest.(check int) "exec.workers" 2 (field "workers");
        Alcotest.(check int) "exec.queued drained between batches" 0
          (field "queued");
        Alcotest.(check int) "exec.injected drained" 0 (field "injected");
        Alcotest.(check bool) "exec.pushes counts the solves" true
          (field "pushes" >= 2);
        Alcotest.(check bool) "exec.steals non-negative" true
          (field "steals" >= 0);
        Alcotest.(check bool) "exec.parks non-negative" true (field "parks" >= 0);
        (match J.member "depths" exec with
        | Some (J.List depths) ->
          Alcotest.(check int) "one depth slot per worker" 2 (List.length depths)
        | _ -> Alcotest.fail "stats lack exec.depths");
        (* Additive only: the pre-executor fields are untouched. *)
        List.iter
          (fun k ->
            Alcotest.(check bool) (k ^ " still present") true
              (J.member k json <> None))
          [ "requests"; "ok"; "errors"; "timeouts"; "overloaded"; "cache";
            "workers"; "queue" ])

(* ---- daemon smoke test over a socketpair (CI satellite) ---- *)

let test_daemon_socketpair_smoke () =
  let server_fd, client_fd = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let server = Server.create { small_config with Server.workers = 2 } in
  let daemon =
    Domain.spawn (fun () ->
        Server.serve_io server ~input:server_fd ~output:server_fd;
        Server.drain server)
  in
  let client = Lines.of_fd client_fd in
  let rpc = Lines.rpc client in
  (* hello: the handshake names the protocol and the algorithms. *)
  let hello = rpc (J.obj [ ("proto", J.str Protocol.version); ("kind", J.str "hello") ]) in
  Alcotest.(check string) "hello ok" "ok" (response_status hello);
  Alcotest.(check bool) "hello lists algorithms" true
    (Helpers.contains ~needle:R.Names.optimal hello);
  (* solve round-trip with a correlation id. *)
  let solve =
    rpc
      (J.obj
         [
           ("proto", J.str Protocol.version);
           ("id", J.int 99);
           ("kind", J.str "solve");
           ("instance", J.str "1/2 1/2\n1/2");
           ("algorithm", J.str R.Names.optimal);
         ])
  in
  Alcotest.(check string) "solve ok" "ok" (response_status solve);
  Alcotest.(check bool) "id echoed" true
    (Helpers.contains ~needle:{|"id":99|} solve);
  Alcotest.(check bool) "makespan present" true
    (Helpers.contains ~needle:{|"makespan":2|} solve);
  (* campaign round-trip. *)
  let campaign =
    rpc
      (J.obj
         [
           ("proto", J.str Protocol.version);
           ("kind", J.str "campaign");
           ("m", J.int 2);
           ("n", J.int 2);
           ("granularity", J.int 5);
           ("seed_lo", J.int 1);
           ("seed_hi", J.int 2);
           ("algorithms", J.arr [ J.str R.Names.greedy_balance ]);
           ("baseline", J.str "lower-bound");
         ])
  in
  Alcotest.(check string) "campaign ok" "ok" (response_status campaign);
  Alcotest.(check bool) "campaign reports items" true
    (Helpers.contains ~needle:{|"items":2|} campaign);
  (* malformed line: answered, not dropped, with a byte offset. *)
  let malformed = rpc "{\"proto\":\"crs-serve/1\"," in
  Alcotest.(check string) "malformed answered with error" "error"
    (response_status malformed);
  Alcotest.(check bool) "error carries offset" true
    (Helpers.contains ~needle:"offset" malformed);
  (* overload: a single write of many pipelined requests forms one
     batch; the tail beyond the queue bound is shed. *)
  let burst =
    String.concat "\n"
      (List.init 12 (fun i -> solve_line (random_instance (30 + i))))
    ^ "\n"
  in
  Lines.send_line client (String.sub burst 0 (String.length burst - 1));
  let burst_statuses =
    List.init 12 (fun _ ->
        match Lines.recv_line client with
        | Some l -> response_status l
        | None -> Alcotest.fail "daemon closed during burst")
  in
  Alcotest.(check int) "all burst requests answered" 12
    (List.length burst_statuses);
  Alcotest.(check bool) "no burst request errored" true
    (List.for_all (fun s -> s = "ok" || s = "overloaded") burst_statuses);
  (* graceful shutdown: answered, then the daemon drains and exits. *)
  let bye = rpc (J.obj [ ("proto", J.str Protocol.version); ("kind", J.str "shutdown") ]) in
  Alcotest.(check string) "shutdown ok" "ok" (response_status bye);
  Domain.join daemon;
  Unix.close client_fd;
  Unix.close server_fd

(* ---- the concurrent frontend (socketpair connections) ---- *)

(* Tests drive the concurrent frontend through an attach function
   (Server.attach, or Balancer.attach in test_balance): one socketpair
   per connection, the server end registered exactly as the accept loop
   would, the client end wrapped in a Frontend.Lines. *)

(* Queue sized so the concurrent batteries never trip admission —
   overload shedding has its own dedicated test above. *)
let conn_config =
  {
    Server.default_config with
    Server.workers = 2;
    queue = 64;
    cache_capacity = 32;
    default_fuel = None;
    idle_timeout_s = 0.0;
    drain_grace_s = 0.4;
  }

type conn = {
  client : Lines.t;
  client_fd : Unix.file_descr;
  reader : Thread.t option;
}

let open_conn attach =
  (* Close-on-exec: a balancer's respawned shard must not inherit the
     client end, or closing it would never reach the reader as EOF. *)
  let server_fd, client_fd =
    Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0
  in
  let reader = attach server_fd in
  { client = Lines.of_fd client_fd; client_fd; reader }

let close_conn c =
  (try Unix.close c.client_fd with Unix.Unix_error _ -> ());
  match c.reader with Some th -> Thread.join th | None -> ()

let raw_send fd s =
  let len = String.length s in
  let rec go off =
    if off < len then go (off + Unix.write_substring fd s off (len - off))
  in
  go 0

let stats_field server path =
  match J.parse (J.obj (Server.stats_payload server)) with
  | Error msg -> Alcotest.failf "stats payload unparseable: %s" msg
  | Ok json -> (
    let rec walk json = function
      | [] -> Some json
      | k :: rest -> Option.bind (J.member k json) (fun j -> walk j rest)
    in
    match walk json path with
    | Some (J.Int v) -> v
    | _ -> Alcotest.failf "stats lack %s" (String.concat "." path))

(* Tentpole: N concurrent connections issuing interleaved solve/stats
   pipelines. Per-connection response order must hold (ids echo back in
   request order), every solve response must be byte-identical to the
   single-connection golden, and cache accounting must sum exactly
   across connections (deterministic because the cache is prewarmed, so
   every concurrent solve is a hit). *)
let test_concurrent_connections_deterministic () =
  with_server conn_config (fun server ->
      let golden_server = Server.create conn_config in
      Fun.protect
        ~finally:(fun () -> Server.drain golden_server)
        (fun () ->
          let instances = Array.init 3 (fun i -> random_instance (40 + i)) in
          (* Prewarm: one miss per distinct instance, counted below. *)
          Array.iter
            (fun i -> ignore (Server.handle_line server (solve_line i)))
            instances;
          let conns = 4 and per = 9 in
          let request c j =
            if j mod 3 = 2 then
              J.obj
                [
                  ("proto", J.str Protocol.version);
                  ("id", J.int ((100 * c) + j));
                  ("kind", J.str "stats");
                ]
            else
              solve_line
                ~extra:[ ("id", J.int ((100 * c) + j)) ]
                instances.(j mod 3)
          in
          let connections =
            Array.init conns (fun _ -> open_conn (Server.attach server))
          in
          Array.iter
            (fun c ->
              Alcotest.(check bool) "connection admitted" true (c.reader <> None))
            connections;
          let responses = Array.make_matrix conns per "" in
          let clients =
            Array.mapi
              (fun c conn ->
                Thread.create
                  (fun () ->
                    (* One pipelined write, then read everything back:
                       maximal interleaving across connections. *)
                    let lines =
                      String.concat "\n"
                        (List.init per (fun j -> request c j))
                      ^ "\n"
                    in
                    raw_send conn.client_fd lines;
                    for j = 0 to per - 1 do
                      match Lines.recv_line conn.client with
                      | Some r -> responses.(c).(j) <- r
                      | None -> responses.(c).(j) <- "<eof>"
                    done)
                  ())
              connections
          in
          Array.iter Thread.join clients;
          for c = 0 to conns - 1 do
            for j = 0 to per - 1 do
              let r = responses.(c).(j) in
              Alcotest.(check bool)
                (Printf.sprintf "conn %d response %d in request order" c j)
                true
                (Helpers.contains
                   ~needle:(Printf.sprintf {|"id":%d|} ((100 * c) + j))
                   r);
              if j mod 3 = 2 then
                Alcotest.(check string)
                  (Printf.sprintf "conn %d stats %d ok" c j)
                  "ok" (response_status r)
              else
                (* Byte-identity against the single-connection golden:
                   same request line, fresh single-connection server. *)
                Alcotest.(check string)
                  (Printf.sprintf "conn %d solve %d byte-identical" c j)
                  (Server.handle_line golden_server (request c j))
                  r
            done
          done;
          let solves_per_conn = per - (per / 3) in
          Alcotest.(check int) "misses = distinct instances (prewarm)" 3
            (stats_field server [ "cache"; "misses" ]);
          Alcotest.(check int) "hits = every concurrent solve"
            (conns * solves_per_conn)
            (stats_field server [ "cache"; "hits" ]);
          Alcotest.(check int) "accepted counts the readers" conns
            (stats_field server [ "connections"; "accepted" ]);
          Alcotest.(check int) "no connection refused below max-conns" 0
            (stats_field server [ "connections"; "refused" ]);
          (* The latency histogram saw every solve: the 3 prewarm
             misses plus each concurrent hit. *)
          Alcotest.(check int) "solve latency count = prewarm + concurrent"
            (3 + (conns * solves_per_conn))
            (stats_field server [ "latency"; "solve"; "count" ]);
          Array.iter close_conn connections;
          Alcotest.(check int) "all readers closed" 0
            (stats_field server [ "connections"; "live" ])))

(* Satellite: per-kind latency histograms — counts must match the
   request mix exactly, the quantile edges must be ordered, and every
   exercised kind's p99 edge stays within 2^18 us (~262 ms). *)
let test_latency_histogram_per_kind () =
  with_server conn_config (fun server ->
      let hello =
        J.obj [ ("proto", J.str Protocol.version); ("kind", J.str "hello") ]
      in
      let stats_line =
        J.obj [ ("proto", J.str Protocol.version); ("kind", J.str "stats") ]
      in
      for i = 1 to 5 do
        ignore (Server.handle_line server (solve_line (random_instance i)))
      done;
      ignore (Server.handle_line server hello);
      ignore (Server.handle_line server hello);
      ignore (Server.handle_line server stats_line);
      Alcotest.(check int) "solve latency count" 5
        (stats_field server [ "latency"; "solve"; "count" ]);
      Alcotest.(check int) "stats latency count" 1
        (stats_field server [ "latency"; "stats"; "count" ]);
      Alcotest.(check int) "control latency count (hello x2)" 2
        (stats_field server [ "latency"; "control"; "count" ]);
      Alcotest.(check int) "campaign latency count" 0
        (stats_field server [ "latency"; "campaign"; "count" ]);
      let p50 = stats_field server [ "latency"; "solve"; "p50_us" ] in
      let p99 = stats_field server [ "latency"; "solve"; "p99_us" ] in
      let mx = stats_field server [ "latency"; "solve"; "max_us" ] in
      Alcotest.(check bool) "p50 <= p99" true (p50 <= p99);
      Alcotest.(check bool)
        (Printf.sprintf "p99 edge %d bounds max %d" p99 mx)
        true
        (mx <= p99 || p99 = 0);
      List.iter
        (fun kind ->
          let p99 = stats_field server [ "latency"; kind; "p99_us" ] in
          Alcotest.(check bool)
            (Printf.sprintf "%s p99 edge %d us <= 262144 us" kind p99)
            true (p99 <= 262144))
        [ "solve"; "stats"; "control" ])

(* Satellite: adversarial-client battery. Each hostile connection dies
   alone — with a structured answer — while a well-behaved sibling on
   the same server keeps completing solves. *)
let test_adversarial_slow_loris () =
  with_server
    { conn_config with Server.idle_timeout_s = 0.15 }
    (fun server ->
      let victim = open_conn (Server.attach server) in
      let sibling = open_conn (Server.attach server) in
      (* Half a frame, then silence. *)
      raw_send victim.client_fd {|{"proto":"crs-serve|};
      let r = Lines.rpc sibling.client (solve_line (random_instance 7)) in
      Alcotest.(check string) "sibling solves while loris hangs" "ok"
        (response_status r);
      (match Lines.recv_line victim.client with
      | Some r ->
        Alcotest.(check string) "structured eviction" "evicted"
          (response_status r);
        Alcotest.(check bool) "names the deadline" true
          (Helpers.contains ~needle:"deadline" r);
        Alcotest.(check bool) "connection-level response" true
          (Helpers.contains ~needle:{|"req":"connection"|} r)
      | None -> Alcotest.fail "loris got no eviction response");
      Alcotest.(check (option string)) "loris connection closed" None
        (Lines.recv_line victim.client);
      let r = Lines.rpc sibling.client (solve_line (random_instance 8)) in
      Alcotest.(check string) "sibling survives the eviction" "ok"
        (response_status r);
      Alcotest.(check int) "evicted counted" 1
        (stats_field server [ "connections"; "evicted" ]);
      close_conn victim;
      close_conn sibling)

(* ---- the connection battery, against both frontends ---- *)

(* What the battery needs of a frontend's owner: its attach function,
   a field of its [connections] stats, and its stop flag. [with_front]
   runs a case on a fresh owner with the given limits; test_balance
   registers the same cases against a 1-shard balancer. *)
type front = {
  attach : Unix.file_descr -> Thread.t option;
  connections : string -> int;
  stopping : unit -> bool;
}

let default_max_line = Server.default_config.Server.max_line_bytes

let test_adversarial_battery with_front () =
  with_front ~max_conns:64 ~max_line_bytes:256 (fun front ->
      let sibling = open_conn front.attach in
      let solve_ok msg =
        let r =
          Lines.rpc sibling.client (solve_line (random_instance 9))
        in
        Alcotest.(check string) msg "ok" (response_status r)
      in
      (* Mid-line EOF: the unterminated fragment is still answered (as a
         parse error), then the connection ends cleanly. *)
      let c = open_conn front.attach in
      raw_send c.client_fd {|{"proto":"crs-serve/1","kind":|};
      Unix.shutdown c.client_fd Unix.SHUTDOWN_SEND;
      (match Lines.recv_line c.client with
      | Some r ->
        Alcotest.(check string) "mid-line EOF answered as error" "error"
          (response_status r)
      | None -> Alcotest.fail "mid-line EOF dropped the request");
      Alcotest.(check (option string)) "then EOF" None
        (Lines.recv_line c.client);
      solve_ok "sibling unharmed by mid-line EOF";
      close_conn c;
      (* Oversized frame: structured error naming the limit, then the
         poisoned connection is closed — alone — and counted evicted. *)
      let c = open_conn front.attach in
      raw_send c.client_fd (String.make 300 'x' ^ "\n");
      (match Lines.recv_line c.client with
      | Some r ->
        Alcotest.(check string) "oversized answered as error" "error"
          (response_status r);
        Alcotest.(check bool) "names the limit" true
          (Helpers.contains ~needle:"256" r)
      | None -> Alcotest.fail "oversized frame dropped");
      Alcotest.(check (option string)) "poisoned connection closed" None
        (Lines.recv_line c.client);
      close_conn c;
      Alcotest.(check int) "oversized frame counted as an eviction" 1
        (front.connections "evicted");
      solve_ok "sibling unharmed by oversized frame";
      (* Garbage frame: answered with the parser's offset error; the
         same connection keeps serving. *)
      let c = open_conn front.attach in
      raw_send c.client_fd "!!not json!!\n";
      (match Lines.recv_line c.client with
      | Some r ->
        Alcotest.(check string) "garbage answered as error" "error"
          (response_status r);
        Alcotest.(check bool) "carries a byte offset" true
          (Helpers.contains ~needle:"offset" r)
      | None -> Alcotest.fail "garbage frame dropped");
      let r = Lines.rpc c.client (solve_line (random_instance 10)) in
      Alcotest.(check string) "garbage connection still serves" "ok"
        (response_status r);
      solve_ok "sibling unharmed by garbage";
      close_conn c;
      close_conn sibling)

let test_connection_refusal_beyond_max_conns with_front () =
  with_front ~max_conns:2 ~max_line_bytes:default_max_line (fun front ->
      let a = open_conn front.attach in
      let b = open_conn front.attach in
      let c = open_conn front.attach in
      Alcotest.(check bool) "first two admitted" true
        (a.reader <> None && b.reader <> None);
      Alcotest.(check bool) "third refused" true (c.reader = None);
      (match Lines.recv_line c.client with
      | Some r ->
        Alcotest.(check string) "structured overloaded refusal" "overloaded"
          (response_status r);
        Alcotest.(check bool) "connection-level response" true
          (Helpers.contains ~needle:{|"req":"connection"|} r)
      | None -> Alcotest.fail "refused connection got no response");
      Alcotest.(check (option string)) "refused connection closed" None
        (Lines.recv_line c.client);
      Alcotest.(check int) "refused counted" 1 (front.connections "refused");
      (* The admitted connections still serve. *)
      let r = Lines.rpc a.client (solve_line (random_instance 11)) in
      Alcotest.(check string) "admitted conn solves" "ok" (response_status r);
      close_conn a;
      close_conn b;
      close_conn c)

(* Graceful drain under load — in-flight requests travelling with the
   shutdown finish and are answered; a late request on a sibling
   connection gets a structured draining refusal; then every connection
   quiesces to EOF. *)
let test_graceful_drain_under_load with_front () =
  with_front ~max_conns:64 ~max_line_bytes:default_max_line (fun front ->
      let a = open_conn front.attach in
      let b = open_conn front.attach in
      let line kind id =
        J.obj
          [
            ("proto", J.str Protocol.version);
            ("id", J.int id);
            ("kind", J.str kind);
          ]
      in
      (* One pipelined write: two solves in flight plus the shutdown. *)
      raw_send a.client_fd
        (String.concat "\n"
           [
             solve_line ~extra:[ ("id", J.int 1) ] (random_instance 21);
             solve_line ~extra:[ ("id", J.int 2) ] (random_instance 22);
             line "shutdown" 3;
           ]
        ^ "\n");
      let read_a () =
        match Lines.recv_line a.client with
        | Some r -> r
        | None -> Alcotest.fail "connection A closed early"
      in
      let r1 = read_a () and r2 = read_a () and r3 = read_a () in
      Alcotest.(check string) "in-flight solve 1 finished" "ok"
        (response_status r1);
      Alcotest.(check string) "in-flight solve 2 finished" "ok"
        (response_status r2);
      Alcotest.(check string) "shutdown acknowledged" "ok" (response_status r3);
      Alcotest.(check bool) "stopping" true (front.stopping ());
      (* Late request during the drain window: refused, structurally. *)
      Lines.send_line b.client
        (solve_line ~extra:[ ("id", J.int 4) ] (random_instance 23));
      (match Lines.recv_line b.client with
      | Some r ->
        Alcotest.(check string) "late request refused" "draining"
          (response_status r);
        Alcotest.(check bool) "refusal echoes the id" true
          (Helpers.contains ~needle:{|"id":4|} r)
      | None -> Alcotest.fail "late request got no refusal");
      (* Both connections quiesce to EOF once the grace window ends. *)
      Alcotest.(check (option string)) "A drained to EOF" None
        (Lines.recv_line a.client);
      Alcotest.(check (option string)) "B drained to EOF" None
        (Lines.recv_line b.client);
      close_conn a;
      close_conn b;
      Alcotest.(check int) "both connections counted drained" 2
        (front.connections "drained"))

let connection_battery with_front =
  [
    Alcotest.test_case "conns: adversarial frames die alone" `Quick
      (test_adversarial_battery with_front);
    Alcotest.test_case "conns: refusal beyond max-conns" `Quick
      (test_connection_refusal_beyond_max_conns with_front);
    Alcotest.test_case "conns: graceful drain under load" `Quick
      (test_graceful_drain_under_load with_front);
  ]

let with_server_front ~max_conns ~max_line_bytes f =
  with_server
    { conn_config with Server.max_conns; max_line_bytes }
    (fun server ->
      f
        {
          attach = Server.attach server;
          connections = (fun k -> stats_field server [ "connections"; k ]);
          stopping = (fun () -> Server.stopping server);
        })

(* Satellite: the listen backlog is a config field (surfaced as
   --backlog) and actually reaches listen(2) at both bind sites. *)
let test_backlog_config () =
  Alcotest.(check int) "default backlog raised" 128
    Server.default_config.Server.backlog;
  let path = Filename.temp_file "crs" ".sock" in
  Sys.remove path;
  (match Server.bind_address ~backlog:5 (Server.Unix_sock path) with
  | Ok fd -> Server.close_address (Server.Unix_sock path) fd
  | Error msg -> Alcotest.failf "unix bind with backlog failed: %s" msg);
  match Server.bind_address ~backlog:5 (Server.Tcp ("127.0.0.1", 0)) with
  | Ok fd -> Server.close_address (Server.Tcp ("127.0.0.1", 0)) fd
  | Error msg -> Alcotest.failf "tcp bind with backlog failed: %s" msg

(* ---- address parsing ---- *)

let test_parse_address () =
  (match Server.parse_address "unix:/tmp/x.sock" with
  | Ok (Server.Unix_sock "/tmp/x.sock") -> ()
  | _ -> Alcotest.fail "unix address");
  (match Server.parse_address "tcp:127.0.0.1:4321" with
  | Ok (Server.Tcp ("127.0.0.1", 4321)) -> ()
  | _ -> Alcotest.fail "tcp address");
  let bad s =
    match Server.parse_address s with
    | Error msg -> Alcotest.(check bool) s true (Helpers.contains ~needle:s msg)
    | Ok _ -> Alcotest.failf "accepted %s" s
  in
  bad "bogus";
  bad "tcp:host:notaport";
  bad "unix:"

(* ---- warm (crs-warm/1) ---- *)

module Warm = Crs_serve.Warm

let temp_warm_path =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "crs-warm-test-%d-%d.jsonl" (Unix.getpid ()) !n)

let test_solve_key_roundtrip () =
  let keys =
    [
      {
        Canon.Solve_key.algorithm = "greedy-balance";
        fuel = None;
        witness = false;
        certify = false;
        canon = "1/2 1/3\n1/4\n";
      };
      {
        Canon.Solve_key.algorithm = "optimal";
        fuel = Some 123;
        witness = true;
        certify = true;
        canon = "1/2\n";
      };
    ]
  in
  List.iter
    (fun k ->
      match Canon.Solve_key.of_string (Canon.Solve_key.to_string k) with
      | Some k' ->
        Alcotest.(check bool) "solve key round-trips" true (k = k')
      | None ->
        Alcotest.failf "solve key failed to parse: %s"
          (Canon.Solve_key.to_string k))
    keys;
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Printf.sprintf "garbage rejected: %S" s)
        true
        (Option.is_none (Canon.Solve_key.of_string s)))
    [ ""; "gibberish"; "a|b"; "|x|truefalse|1/2\n"; "alg|x|truefalse|" ]

let test_cache_keys_mru_first () =
  with_server small_config (fun server ->
      let a = random_instance 11 and b = random_instance 12 in
      ignore (Server.handle_line server (solve_line a));
      ignore (Server.handle_line server (solve_line b));
      (* Touch [a] again: it must come back as the MRU key. *)
      ignore (Server.handle_line server (solve_line a));
      match Server.cache_keys server with
      | [ ka; kb ] ->
        let canon_of k =
          match Canon.Solve_key.of_string k with
          | Some sk -> sk.Canon.Solve_key.canon
          | None -> Alcotest.failf "cache key unparseable: %s" k
        in
        Alcotest.(check string) "MRU key is the re-touched instance"
          (Canon.key a) (canon_of ka);
        Alcotest.(check string) "LRU key is the other instance" (Canon.key b)
          (canon_of kb)
      | keys -> Alcotest.failf "expected 2 cache keys, got %d"
          (List.length keys))

let test_drain_hook_fires_once () =
  let count = ref 0 in
  let server = Server.create small_config in
  Server.set_on_drain server (fun _ -> incr count);
  ignore (Server.handle_line server (solve_line (random_instance 9)));
  Server.drain server;
  Server.drain server;
  Alcotest.(check int) "hook ran exactly once" 1 !count;
  (* A hook that raises is reported and swallowed, never wedging drain. *)
  let raising = Server.create small_config in
  Server.set_on_drain raising (fun _ -> failwith "boom");
  Server.drain raising;
  Server.drain raising

let test_warm_roundtrip_byte_identity () =
  let path = temp_warm_path () in
  let instances = List.init 4 (fun i -> random_instance (20 + i)) in
  let cold =
    let server = Server.create small_config in
    Server.set_on_drain server (fun s -> ignore (Warm.save s ~path));
    let responses =
      List.map (fun i -> Server.handle_line server (solve_line i)) instances
    in
    Server.drain server;
    responses
  in
  Alcotest.(check bool) "snapshot written on drain" true
    (Sys.file_exists path);
  with_server small_config (fun warmed ->
      (match Warm.load_and_replay warmed ~path with
      | Error msg -> Alcotest.failf "replay failed: %s" msg
      | Ok report ->
        Alcotest.(check int) "all entries replayed" 4
          report.Warm.replayed;
        Alcotest.(check int) "no replay failures" 0 report.Warm.failed);
      Alcotest.(check int) "stats expose warm entries" 4
        (stats_field warmed [ "warm"; "entries" ]);
      Alcotest.(check int) "stats expose warm replays" 4
        (stats_field warmed [ "warm"; "replayed" ]);
      let hits0 = stats_field warmed [ "cache"; "hits" ] in
      let warm_responses =
        List.map (fun i -> Server.handle_line warmed (solve_line i)) instances
      in
      List.iter2
        (fun c w ->
          Alcotest.(check string) "warm response byte-identical to cold" c w)
        cold warm_responses;
      Alcotest.(check int) "every post-replay solve is a cache hit"
        (hits0 + 4)
        (stats_field warmed [ "cache"; "hits" ]));
  Sys.remove path

let test_warm_bad_files () =
  let path = temp_warm_path () in
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc "{\"proto\":\"crs-warm/9\",\"entries\":0}\n");
  (match Warm.load path with
  | Error msg ->
    Alcotest.(check bool) "error names the supported protocol" true
      (Helpers.contains ~needle:"crs-warm/1" msg)
  | Ok _ -> Alcotest.fail "wrong warm protocol accepted");
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc
        "{\"proto\":\"crs-warm/1\",\"entries\":1}\n{\"algorithm\":\"\"}\n");
  (match Warm.load path with
  | Error msg ->
    Alcotest.(check bool) "entry error names the entry" true
      (Helpers.contains ~needle:"entry 1" msg)
  | Ok _ -> Alcotest.fail "malformed warm entry accepted");
  Sys.remove path;
  with_server small_config (fun server ->
      match Warm.load_and_replay server ~path with
      | Ok r ->
        Alcotest.(check int) "missing file is a fresh start" 0 r.Warm.entries
      | Error msg -> Alcotest.failf "missing file should not error: %s" msg)

let suite =
  [
    Alcotest.test_case "canon: idempotent" `Quick test_canon_idempotent;
    Alcotest.test_case "canon: key invariant under oracle mutations" `Quick
      test_canon_key_invariance;
    Alcotest.test_case "canon: distinct instances distinguished" `Quick
      test_canon_distinguishes;
    Alcotest.test_case "canon: padding-only instance kept" `Quick
      test_canon_padding_only_instance;
    Alcotest.test_case "cache: LRU eviction and counters" `Quick test_cache_lru;
    Alcotest.test_case "cache: capacity 0 disables" `Quick test_cache_disabled;
    Alcotest.test_case "protocol: solve defaults" `Quick
      test_protocol_solve_defaults;
    Alcotest.test_case "protocol: strict parse errors" `Quick
      test_protocol_strictness;
    Alcotest.test_case "protocol: campaign size cap" `Quick
      test_protocol_campaign_cap;
    Alcotest.test_case "server: canonically equal inputs, identical bytes"
      `Quick test_server_byte_identical_responses;
    Alcotest.test_case "server: overload sheds the batch tail" `Quick
      test_server_overload_sheds_batch_tail;
    Alcotest.test_case "server: fuel deadline is a structured timeout" `Quick
      test_server_fuel_timeout;
    Alcotest.test_case "server: opt_two fuel price pinned to reached cells"
      `Quick test_server_fuel_opt_two_pinned;
    Alcotest.test_case "server: memo cache hits on repeats" `Quick
      test_server_cache_hits;
    Alcotest.test_case "server: stats expose executor saturation" `Quick
      test_server_stats_exec_fields;
    Alcotest.test_case "daemon: socketpair smoke test" `Quick
      test_daemon_socketpair_smoke;
    Alcotest.test_case "conns: concurrent interleave is deterministic" `Quick
      test_concurrent_connections_deterministic;
    Alcotest.test_case "conns: per-kind latency histograms" `Quick
      test_latency_histogram_per_kind;
    Alcotest.test_case "conns: slow-loris evicted, sibling unharmed" `Quick
      test_adversarial_slow_loris;
  ]
  @ connection_battery with_server_front
  @ [
      Alcotest.test_case "config: backlog reaches listen(2)" `Quick
        test_backlog_config;
      Alcotest.test_case "address: parse and reject" `Quick test_parse_address;
      Alcotest.test_case "warm: solve keys round-trip" `Quick
        test_solve_key_roundtrip;
      Alcotest.test_case "warm: cache keys come back MRU-first" `Quick
        test_cache_keys_mru_first;
      Alcotest.test_case "warm: drain hook fires exactly once" `Quick
        test_drain_hook_fires_once;
      Alcotest.test_case "warm: snapshot/replay round-trip, identical bytes"
        `Quick test_warm_roundtrip_byte_identity;
      Alcotest.test_case "warm: malformed files rejected with cause" `Quick
        test_warm_bad_files;
    ]
