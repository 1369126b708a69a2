(* crs_serve balancer: rendezvous routing determinism, the PROTOCOL.md
   inventory tripwire, and end-to-end sharded-tier tests over real
   `crsched serve` worker processes — byte-identity through the
   balancer, worker-kill-and-restart with exact accounting, warm-tier
   replay, and test_serve's connection battery on the balancer's
   frontend. Tests run in _build/default/test with the crsched
   binary at ../bin/crsched.exe (a dune dep). *)

open Crs_core
module Balancer = Crs_serve.Balancer
module Canon = Crs_serve.Canon
module Protocol = Crs_serve.Protocol
module Lines = Crs_serve.Frontend.Lines
module J = Crs_util.Stable_json

let exe = Filename.concat ".." (Filename.concat "bin" "crsched.exe")

let random_instance ?(m = 3) seed =
  let spec =
    { Crs_generators.Random_gen.default_spec with m; jobs_min = 2; jobs_max = 4 }
  in
  Crs_generators.Random_gen.instance ~spec (Random.State.make [| seed |])

(* ---- routing ---- *)

let test_route_deterministic () =
  let keys = List.init 200 (fun i -> Printf.sprintf "key-%d" i) in
  let hits = Array.make 4 0 in
  List.iter
    (fun key ->
      let s = Balancer.route ~shards:4 key in
      Alcotest.(check int)
        (Printf.sprintf "%s routes stably" key)
        s
        (Balancer.route ~shards:4 key);
      Alcotest.(check bool) "in range" true (s >= 0 && s < 4);
      hits.(s) <- hits.(s) + 1)
    keys;
  (* Rendezvous hashing spreads: with 200 keys over 4 shards, each
     shard must see a healthy share (exact counts are a pure function
     of MD5, so this cannot flake). *)
  Array.iteri
    (fun i n ->
      Alcotest.(check bool)
        (Printf.sprintf "shard %d got a fair share (%d)" i n)
        true (n > 20))
    hits;
  List.iter
    (fun key ->
      Alcotest.(check int) "single shard routes everything" 0
        (Balancer.route ~shards:1 key))
    keys

let test_route_canonical_equivalents_agree () =
  for seed = 1 to 40 do
    let i = random_instance seed in
    let m = Instance.m i in
    let permuted =
      Instance.sub_processors i (List.init m (fun k -> m - 1 - k))
    in
    let padded = Crs_fuzz.Oracle.zero_pad_instance i in
    let shard_of x = Balancer.route ~shards:3 (Canon.key x) in
    Alcotest.(check int)
      (Printf.sprintf "seed %d: permuted instance, same shard" seed)
      (shard_of i) (shard_of permuted);
    Alcotest.(check int)
      (Printf.sprintf "seed %d: padded instance, same shard" seed)
      (shard_of i) (shard_of padded)
  done

(* ---- PROTOCOL.md inventory ---- *)

(* Exhaustive match: adding a request constructor without extending this
   function is a compile error, and the new kind's name must then appear
   in docs/PROTOCOL.md for the inventory check to pass — the doc cannot
   silently fall behind the protocol. *)
let documented_kind = function
  | Protocol.Hello -> "hello"
  | Protocol.Solve _ -> "solve"
  | Protocol.Campaign _ -> "campaign"
  | Protocol.Stats -> "stats"
  | Protocol.Shutdown -> "shutdown"

let request_kind_names =
  let solve =
    {
      Protocol.algorithm = "greedy-balance";
      instance = Instance.create [| [| Job.unit Crs_num.Rational.one |] |];
      fuel = None;
      witness = false;
      certify = false;
      cache = true;
    }
  in
  let campaign =
    {
      Crs_campaign.Spec.family = Crs_campaign.Spec.Uniform;
      m = 2;
      n = 2;
      granularity = 4;
      seed_lo = 1;
      seed_hi = 1;
      algorithms = [ "greedy-balance" ];
      baseline = Crs_campaign.Spec.Lower_bound;
      fuel = None;
    }
  in
  List.map documented_kind
    [
      Protocol.Hello;
      Protocol.Solve solve;
      Protocol.Campaign campaign;
      Protocol.Stats;
      Protocol.Shutdown;
    ]

let statuses =
  [
    "ok"; "error"; "timeout"; "overloaded"; "not_applicable"; "draining";
    "evicted";
  ]

let test_protocol_doc_inventory () =
  let doc =
    In_channel.with_open_text
      (Filename.concat ".." (Filename.concat "docs" "PROTOCOL.md"))
      In_channel.input_all
  in
  List.iter
    (fun kind ->
      Alcotest.(check bool)
        (Printf.sprintf "PROTOCOL.md documents request kind %S" kind)
        true
        (Helpers.contains ~needle:(Printf.sprintf "\"kind\":\"%s\"" kind) doc))
    request_kind_names;
  List.iter
    (fun status ->
      Alcotest.(check bool)
        (Printf.sprintf "PROTOCOL.md documents status %S" status)
        true
        (Helpers.contains ~needle:(Printf.sprintf "`%s`" status) doc))
    statuses;
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "PROTOCOL.md covers %s" needle)
        true
        (Helpers.contains ~needle doc))
    [ "crs-serve/1"; "crs-warm/1"; "\"kind\":\"response\""; "stats"; "warm" ]

(* ---- end-to-end tiers over real shard processes ---- *)

let temp_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "crsbal-%d-%d" (Unix.getpid ()) !n)
    in
    Unix.mkdir dir 0o700;
    dir

let tier_config ?(warm_state = "") ~socket_dir ~shards () =
  let shard_argv ~index ~socket =
    let base =
      [
        exe; "serve";
        "--listen"; "unix:" ^ socket;
        "--workers"; "1";
        "--queue"; "16";
        "--cache"; "64";
      ]
    in
    let warm =
      if warm_state = "" then []
      else
        [
          "--warm-state"; warm_state;
          "--warm-id"; Printf.sprintf "shard-%d" index;
        ]
    in
    Array.of_list (base @ warm)
  in
  {
    (Balancer.default_config ~shards ~socket_dir ~shard_argv) with
    Balancer.health_interval_s = 0.2;
    restart_backoff_s = 0.05;
    drain_grace_s = 0.2;
  }

let with_tier cfg f =
  match Balancer.create cfg with
  | Error msg -> Alcotest.failf "tier failed to start: %s" msg
  | Ok t -> Fun.protect ~finally:(fun () -> Balancer.drain t) (fun () -> f t)

type conn = {
  client : Lines.t;
  client_fd : Unix.file_descr;
  reader : Thread.t option;
}

let open_conn t =
  let balancer_fd, client_fd = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (* Without close-on-exec a respawned shard inherits this fd at
     create_process time, and closing our end then never produces EOF
     for the balancer's reader (attach covers the balancer side). *)
  Unix.set_close_on_exec client_fd;
  let reader = Balancer.attach t balancer_fd in
  { client = Lines.of_fd client_fd; client_fd; reader }

let close_conn c =
  (try Unix.close c.client_fd with Unix.Unix_error _ -> ());
  match c.reader with Some th -> Thread.join th | None -> ()

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

let balancer_stat t path =
  match J.parse (J.obj (Balancer.stats_payload t)) with
  | Error msg -> Alcotest.failf "stats payload unparseable: %s" msg
  | Ok json -> (
    (* Numeric path segments index into arrays (the per-shard list under
       balancer.shard). *)
    let rec walk json = function
      | [] -> Some json
      | k :: rest -> (
        match (json, int_of_string_opt k) with
        | J.List items, Some i when i >= 0 && i < List.length items ->
          walk (List.nth items i) rest
        | _ -> Option.bind (J.member k json) (fun j -> walk j rest))
    in
    match walk json path with
    | Some (J.Int v) -> v
    | _ -> Alcotest.failf "stats lack %s" (String.concat "." path))

let check_accounting t =
  Alcotest.(check int) "accepted = answered + refused"
    (balancer_stat t [ "balancer"; "accepted" ])
    (balancer_stat t [ "balancer"; "answered" ]
    + balancer_stat t [ "balancer"; "refused" ])

let test_tier_byte_identity () =
  let cfg = tier_config ~socket_dir:(temp_dir ()) ~shards:2 () in
  with_tier cfg (fun t ->
      let c = open_conn t in
      Fun.protect
        ~finally:(fun () -> close_conn c)
        (fun () ->
          let hello =
            Lines.rpc c.client
              (J.obj
                 [ ("proto", J.str Protocol.version); ("kind", J.str "hello") ])
          in
          Alcotest.(check string) "hello answered at the front" "ok"
            (response_status hello);
          for seed = 1 to 6 do
            let i = random_instance seed in
            let m = Instance.m i in
            let permuted =
              Instance.sub_processors i (List.init m (fun k -> m - 1 - k))
            in
            let padded = Crs_fuzz.Oracle.zero_pad_instance i in
            let r = Lines.rpc c.client (solve_line i) in
            Alcotest.(check string)
              (Printf.sprintf "seed %d: solve ok" seed)
              "ok" (response_status r);
            (* The sharding guarantee: canonically equivalent requests
               route to the same shard's cache and come back
               byte-identical through the balancer. *)
            Alcotest.(check string)
              (Printf.sprintf "seed %d: permuted byte-identical" seed)
              r
              (Lines.rpc c.client (solve_line permuted));
            Alcotest.(check string)
              (Printf.sprintf "seed %d: padded byte-identical" seed)
              r
              (Lines.rpc c.client (solve_line padded))
          done;
          check_accounting t;
          Alcotest.(check int) "nothing refused on a healthy tier" 0
            (balancer_stat t [ "balancer"; "refused" ])))

(* Kill -9 a shard while a client thread is mid-stream over 200
   requests spread across both shards. Each of the 200 answers must be
   ok (byte-identical to its golden) or a structured overloaded
   refusal, the tier must come back, and the balancer's refusal count
   must equal exactly the refusals this client saw. *)
let test_tier_kill_and_restart () =
  let cfg = tier_config ~socket_dir:(temp_dir ()) ~shards:2 () in
  with_tier cfg (fun t ->
      let c = open_conn t in
      Fun.protect
        ~finally:(fun () -> close_conn c)
        (fun () ->
          let instances = Array.init 8 (fun i -> random_instance (50 + i)) in
          let shard_of i = Balancer.route ~shards:2 (Canon.key i) in
          Alcotest.(check bool) "the stream reaches both shards" true
            (Array.exists (fun i -> shard_of i = 0) instances
            && Array.exists (fun i -> shard_of i = 1) instances);
          let goldens =
            Array.map (fun i -> Lines.rpc c.client (solve_line i)) instances
          in
          Array.iter
            (fun r ->
              Alcotest.(check string) "baseline solve ok" "ok"
                (response_status r))
            goldens;
          let victim = shard_of instances.(0) in
          let pid = (Balancer.shard_pids t).(victim) in
          Alcotest.(check bool) "victim shard is running" true (pid > 0);
          let total = 200 in
          let answers = Array.make total "" in
          let sent = Atomic.make 0 in
          let streamer =
            Thread.create
              (fun () ->
                for k = 0 to total - 1 do
                  (* Never raise: the main thread waits on [sent]. *)
                  answers.(k) <-
                    (try Lines.rpc c.client (solve_line instances.(k mod 8))
                     with e -> Printexc.to_string e);
                  Atomic.incr sent
                done)
              ()
          in
          while Atomic.get sent < 20 do
            Thread.delay 0.001
          done;
          Unix.kill pid Sys.sigkill;
          let at_kill = Atomic.get sent in
          Thread.join streamer;
          Alcotest.(check bool)
            (Printf.sprintf "kill landed mid-stream (after %d of %d)" at_kill
               total)
            true (at_kill < total);
          let refusals = ref 0 in
          Array.iteri
            (fun k r ->
              match response_status r with
              | "ok" ->
                Alcotest.(check string) "stream answer byte-identical"
                  goldens.(k mod 8) r
              | "overloaded" -> incr refusals
              | s -> Alcotest.failf "unexpected status during outage: %s" s)
            answers;
          (* Drive the victim's key until the monitor has it back. *)
          let recovered = ref false in
          let attempts = ref 0 in
          while (not !recovered) && !attempts < 400 do
            incr attempts;
            let r = Lines.rpc c.client (solve_line instances.(0)) in
            (match response_status r with
            | "ok" ->
              Alcotest.(check string) "post-restart answer byte-identical"
                goldens.(0) r;
              recovered := true
            | "overloaded" -> incr refusals
            | s -> Alcotest.failf "unexpected status during outage: %s" s);
            if not !recovered then Thread.delay 0.01
          done;
          Alcotest.(check bool) "tier recovered after kill -9" true !recovered;
          let restarts = balancer_stat t [ "balancer"; "restarts" ] in
          Alcotest.(check bool)
            (Printf.sprintf "monitor restarted the shard (%d)" restarts)
            true (restarts >= 1);
          (* Exact accounting across the outage: no lost answers beyond
             the structured refusals we counted ourselves. *)
          check_accounting t;
          Alcotest.(check int) "refusals all structured and counted"
            !refusals
            (balancer_stat t [ "balancer"; "refused" ])))

(* test_serve's connection battery against a 1-shard balancer, which
   must also keep its request accounting exact throughout. *)
let with_balancer_front ~max_conns ~max_line_bytes f =
  let cfg =
    {
      (tier_config ~socket_dir:(temp_dir ()) ~shards:1 ()) with
      Balancer.max_conns;
      max_line_bytes;
    }
  in
  with_tier cfg (fun t ->
      f
        {
          Test_serve.attach = Balancer.attach t;
          connections =
            (fun k -> balancer_stat t [ "balancer"; "connections"; k ]);
          stopping = (fun () -> Balancer.stopping t);
        };
      check_accounting t)

let test_tier_warm_replay () =
  let socket_dir = temp_dir () in
  let warm_state = temp_dir () in
  let cfg = tier_config ~warm_state ~socket_dir ~shards:2 () in
  let instances = List.init 5 (fun i -> random_instance (30 + i)) in
  (* Cold tier: solve the corpus, then drain — each shard snapshots its
     canonical-key set. *)
  let cold =
    with_tier cfg (fun t ->
        let c = open_conn t in
        Fun.protect
          ~finally:(fun () -> close_conn c)
          (fun () ->
            List.map
              (fun i -> Lines.rpc c.client (solve_line i))
              instances))
  in
  List.iter
    (fun r -> Alcotest.(check string) "cold solve ok" "ok" (response_status r))
    cold;
  Alcotest.(check bool) "warm snapshots written" true
    (Sys.file_exists (Filename.concat warm_state "shard-0.crs-warm.jsonl")
    || Sys.file_exists (Filename.concat warm_state "shard-1.crs-warm.jsonl"));
  (* Warm tier: same config, same warm state. Replay totals must cover
     the corpus, and re-solving it must be pure cache hits with
     byte-identical responses. *)
  with_tier cfg (fun t ->
      let replayed =
        balancer_stat t [ "balancer"; "shard"; "0"; "warm"; "replayed" ]
        + balancer_stat t [ "balancer"; "shard"; "1"; "warm"; "replayed" ]
      in
      Alcotest.(check int) "every snapshot entry replayed"
        (List.length instances) replayed;
      let hits_before =
        balancer_stat t [ "cache"; "hits" ]
      in
      let c = open_conn t in
      Fun.protect
        ~finally:(fun () -> close_conn c)
        (fun () ->
          List.iter2
            (fun i cold_r ->
              Alcotest.(check string) "warm answer byte-identical to cold"
                cold_r
                (Lines.rpc c.client (solve_line i)))
            instances cold);
      Alcotest.(check int) "warm corpus is all cache hits"
        (hits_before + List.length instances)
        (balancer_stat t [ "cache"; "hits" ]))

let suite =
  [
    Alcotest.test_case "route: deterministic rendezvous spread" `Quick
      test_route_deterministic;
    Alcotest.test_case "route: canonical equivalents share a shard" `Quick
      test_route_canonical_equivalents_agree;
    Alcotest.test_case "docs: PROTOCOL.md inventory is complete" `Quick
      test_protocol_doc_inventory;
    Alcotest.test_case "tier: byte-identity through the balancer" `Quick
      test_tier_byte_identity;
    Alcotest.test_case "tier: kill -9 a shard, exact accounting" `Quick
      test_tier_kill_and_restart;
    Alcotest.test_case "tier: warm replay matches cold bytes" `Quick
      test_tier_warm_replay;
  ]
  @ Test_serve.connection_battery with_balancer_front
