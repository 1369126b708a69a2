(* The traced run: per-layer numbers, kept apart from the timed runs.

   Every call the benchmark makes into a layer's public function is wrapped
   in a span (Span), so times and allocation are measured where the work
   happens. Three passes, one per workload's traffic, each emit the layer
   metrics of the layers that traffic crosses; the run emits every layer
   metric, taking a metric from the named workload's own pass where that
   pass measures it. Timings here are per call, at whatever speed the host
   has. *)

open Crs_core
module A = Crs_algorithms
module J = Crs_util.Stable_json
module R = Crs_algorithms.Registry
module P = Crs_serve.Protocol
module Canon = Crs_serve.Canon
module Server = Crs_serve.Server

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }
let f = float_of_int
let p50 l = Host.percentile (Host.sorted (Array.of_list l)) 0.5
let p99 l = Host.percentile (Host.sorted (Array.of_list l)) 0.99
let self name = Span.self_us name
let sum l = List.fold_left ( +. ) 0.0 l
let total_us name = sum (List.map Span.duration_us (Span.named name))

let per_call name field =
  let spans = Span.named name in
  sum (List.map field spans) /. f (max 1 (List.length spans))

(* Replay [lines] over one connection, one request in flight; per-request
   client latencies in us, and the responses. *)
let replay conn lines ~span =
  Array.mapi
    (fun req line ->
      let t0 = Host.now_ns () in
      let rpc () = Load.Conn.rpc conn line in
      let r = if span then Span.with_ ~req "client.rpc" rpc else rpc () in
      (f (Host.now_ns () - t0) /. 1e3, r))
    lines

let lat rs = Array.to_list (Array.map fst rs)

(* CPU ms and context switches a program spent per request on [n]
   requests. *)
let process_cost pids n run =
  let ticks () = List.fold_left (fun acc p -> acc + Host.cpu_ticks p) 0 pids in
  let ctx () = List.fold_left (fun acc p -> acc + Host.ctx_switches p) 0 pids in
  let t0 = ticks () and c0 = ctx () in
  let r = run () in
  let cpu_ms = f (ticks () - t0) /. Host.ticks_per_s *. 1e3 in
  (r, cpu_ms /. f n, f (ctx () - c0) /. f n)

let gc_counts () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_collections, s.Gc.major_collections)

(* Work counters summed per kernel, e.g. "opt_two.cells_expanded". *)
let kernel_counts : (string, int) Hashtbl.t = Hashtbl.create 8

let count k v =
  Hashtbl.replace kernel_counts k
    (v + Option.value (Hashtbl.find_opt kernel_counts k) ~default:0)

(* The exact kernels called directly, so their own counters and
   allocation are visible; the payload is what the server would cache,
   fuel ticks counted as Registry.solve counts them. *)
let kernel ~req inst (s : P.solve) =
  let ticks0 = Crs_util.Fuel.ticks () in
  let makespan, schedule, counters =
    if Instance.m inst = 2 then begin
      let sol = Span.with_ ~req "opt_two.solve" (fun () -> A.Opt_two.solve inst) in
      let c = sol.A.Opt_two.counters in
      count "opt_two.cells_expanded" c.A.Opt_two.cells_expanded;
      count "opt_two.relaxations" c.A.Opt_two.relaxations;
      ( sol.A.Opt_two.makespan,
        sol.A.Opt_two.schedule,
        {
          R.Counters.zero with
          states_expanded = c.A.Opt_two.cells_expanded;
          dp_relaxations = c.A.Opt_two.relaxations;
        } )
    end
    else begin
      let sol = Span.with_ ~req "opt_config.solve" (fun () -> A.Opt_config.solve inst) in
      let st = sol.A.Opt_config.stats in
      let states = List.fold_left ( + ) 0 st.A.Opt_config.layers in
      count "opt_config.states_expanded" states;
      count "opt_config.configs_enumerated" st.A.Opt_config.generated;
      ( sol.A.Opt_config.makespan,
        sol.A.Opt_config.schedule,
        {
          R.Counters.zero with
          states_expanded = states;
          configs_enumerated = st.A.Opt_config.generated;
        } )
    end
  in
  P.ok_solve ~algorithm:s.P.algorithm ~makespan
    ~schedule:(if s.P.witness then Some schedule else None)
    ~counters:{ counters with R.Counters.fuel_ticks = Crs_util.Fuel.ticks () - ticks0 }
    ~canon_digest:(Digest.to_hex (Digest.string (Canon.key inst)))

(* The layers of one solve request, called in-process on this domain.
   The response must equal Server.handle_line's byte for byte; the passes
   check that it does. *)
let layered_solve ~cache ~req line =
  Span.with_ ~req "request" (fun () ->
      let parsed = Span.with_ ~req "protocol.parse" (fun () -> P.parse line) in
      let s =
        match parsed.P.body with
        | Ok (P.Solve s) -> s
        | _ -> Host.fail "unparsed request %s" line
      in
      let canon = Span.with_ ~req "canon.key" (fun () -> Canon.key s.P.instance) in
      let key =
        Canon.Solve_key.to_string
          {
            Canon.Solve_key.algorithm = s.P.algorithm;
            fuel = Server.default_config.Server.default_fuel;
            witness = s.P.witness;
            certify = false;
            canon;
          }
      in
      let payload =
        match Span.with_ ~req "cache.find" (fun () -> Canon.Cache.find cache key) with
        | Some payload -> payload
        | None ->
          let payload = kernel ~req (Canon.canonicalize s.P.instance) s in
          Span.with_ ~req "cache.add" (fun () -> Canon.Cache.add cache key payload);
          payload
      in
      Span.with_ ~req "protocol.encode" (fun () -> P.respond ~id:None ~req:"solve" payload))

(* Metrics read the same way from either serve pass's spans: the layers
   every solve request crosses, and the frontend's share of the median
   latency a client sees over one connection ([client_p50], us). *)
let request_layers ~client_p50 =
  let handle = self "server.handle" in
  let minor name = per_call name (fun s -> s.Span.minor) in
  [
    m "protocol.parse_us" "us" (p50 (self "protocol.parse"));
    m "protocol.encode_us" "us" (p50 (self "protocol.encode"));
    m "protocol.minor_words" "words" (minor "protocol.parse" +. minor "protocol.encode");
    m "canon.key_us" "us" (p50 (self "canon.key"));
    m "canon.minor_words" "words" (minor "canon.key");
    m "cache.find_us" "us" (p50 (self "cache.find"));
    m "server.handle_us_p50" "us" (p50 handle);
    m "server.handle_us_p99" "us" (p99 handle);
    m "server.frontend_us" "us" (client_p50 -. p50 handle);
  ]

let response_bytes responses =
  p50 (List.map (fun r -> f (String.length r)) (Array.to_list responses))

let against ?(path = "") expected responses =
  Array.to_list
    (Array.mapi
       (fun i r ->
         if r = expected.(i) then Outcome.Pass
         else Outcome.Wrong (Printf.sprintf "%s differs from the expected bytes: %s" path r))
       responses)

type pass = { metrics : metric list; attempted : int; failed : int; wrong : string list }

(* ---- exact-cold traffic ---- *)

let exact_pass ctx ~n =
  let next = Exact_cold.stream ctx in
  let reqs = Array.init n (fun _ -> next ()) in
  let lines = Array.map (fun (inst, witness) -> Exact_cold.solve_line inst ~witness) reqs in
  Hashtbl.reset kernel_counts;
  let cache = Canon.Cache.create ~capacity:Server.default_config.Server.cache_capacity in
  let layered = Array.mapi (fun req line -> layered_solve ~cache ~req line) lines in
  let evictions = Canon.Cache.evictions cache in
  (* The whole request path in-process: Server.handle_line. *)
  let server = Server.create Server.default_config in
  let mc0, jc0 = gc_counts () in
  let handled =
    Array.mapi
      (fun req line -> Span.with_ ~req "server.handle" (fun () -> Server.handle_line server line))
      lines
  in
  let mc1, jc1 = gc_counts () in
  Server.drain server;
  (* Admission: one-request batches; wait is map time minus time in f. *)
  let adm = Crs_serve.Admission.create ~queue:64 ~workers:2 in
  let optimal = R.find_exn R.Names.optimal in
  let waits =
    Array.to_list
      (Array.map
         (fun (inst, _) ->
           let inside = Atomic.make 0 in
           let t0 = Host.now_ns () in
           ignore
             (Crs_serve.Admission.map adm
                ~f:(fun i ->
                  let s = Host.now_ns () in
                  ignore (R.solve optimal i);
                  Atomic.set inside (Host.now_ns () - s))
                ~shed:ignore [| inst |]);
           f (Host.now_ns () - t0 - Atomic.get inside) /. 1e3)
         reqs)
  in
  Crs_serve.Admission.drain adm;
  (* The same stream against one `crsched serve`. *)
  let tier = Tier.serve ~crsched:ctx.Ctx.crsched ~dir:ctx.Ctx.dir ~name:"trace-exact" in
  Tier.await_ready tier;
  let conn = Load.Conn.connect tier.Tier.socket in
  let before = Tier.stats conn in
  let client, cpu_ms, ctxsw =
    process_cost [ Tier.pid tier ] n (fun () -> replay conn lines ~span:true)
  in
  let after = Tier.stats conn in
  Tier.shutdown tier conn;
  let d keys = f (Tier.int_at after keys - Tier.int_at before keys) in
  let served = Array.map snd client in
  let failed, wrong =
    Outcome.tally
      (Array.to_list
         (Array.mapi (fun i r -> Exact_cold.check ~corrupt:false r (Some served.(i))) reqs)
      @ against ~path:"crsched serve" handled served
      @ against ~path:"in-process layers" handled layered)
  in
  let kernel_metrics prefix =
    let name = prefix ^ ".solve" in
    let calls = f (max 1 (List.length (Span.named name))) in
    [
      m (prefix ^ ".solve_us_p50") "us" (p50 (self name));
      m (prefix ^ ".solve_us_p99") "us" (p99 (self name));
      m (prefix ^ ".minor_words") "words" (per_call name (fun s -> s.Span.minor));
      m (prefix ^ ".promoted_words") "words" (per_call name (fun s -> s.Span.promoted));
    ]
    @ (Hashtbl.to_seq kernel_counts |> List.of_seq
      |> List.filter (fun (k, _) -> String.starts_with ~prefix:(prefix ^ ".") k)
      |> List.sort compare
      |> List.map (fun (k, v) -> m k "count" (f v /. calls)))
  in
  let per_req v = v /. f n in
  {
    metrics =
      request_layers ~client_p50:(p50 (lat client))
      @ [
          m "protocol.response_bytes" "bytes" (response_bytes served);
          m "cache.hit_ratio" "1"
            (d [ "cache"; "hits" ]
            /. Float.max 1.0 (d [ "cache"; "hits" ] +. d [ "cache"; "misses" ]));
          m "cache.evictions_per_req" "count" (per_req (f evictions));
          m "server.cpu_ms_per_req" "ms" cpu_ms;
          m "server.ctx_switches_per_req" "count" ctxsw;
          m "admission.wait_us_p50" "us" (p50 waits);
          m "admission.wait_us_p99" "us" (p99 waits);
          m "exec.parks_per_req" "count" (per_req (d [ "exec"; "parks" ]));
          m "exec.steals_per_req" "count" (per_req (d [ "exec"; "steals" ]));
          m "gc.minor_collections_per_1k_req" "count" (per_req (f (mc1 - mc0) *. 1000.0));
          m "gc.major_collections_per_1k_req" "count" (per_req (f (jc1 - jc0) *. 1000.0));
        ]
      @ kernel_metrics "opt_two" @ kernel_metrics "opt_config";
    attempted = 3 * n;
    failed;
    wrong;
  }

(* ---- hot-tier traffic ---- *)

let hot_pass ctx ~n =
  let inputs = Hot_tier.inputs ctx in
  let pick a = Array.init n (fun k -> a.(inputs.Hot_tier.order.(k))) in
  let lines = pick inputs.Hot_tier.pool in
  let expected = pick (Hot_tier.goldens inputs.Hot_tier.pool) in
  (* In-process layers over a cache warmed with every key, as the tier's
     caches are. *)
  let cache = Canon.Cache.create ~capacity:Server.default_config.Server.cache_capacity in
  Span.enabled := false;
  Array.iter (fun l -> ignore (layered_solve ~cache ~req:(-1) l)) inputs.Hot_tier.bases;
  Span.enabled := true;
  let layered =
    Array.mapi
      (fun req line ->
        let r = layered_solve ~cache ~req line in
        let inst =
          match (P.parse line).P.body with
          | Ok (P.Solve s) -> s.P.instance
          | _ -> Host.fail "unparsed request %s" line
        in
        ignore
          (Span.with_ ~req "balancer.route" (fun () ->
               Crs_serve.Balancer.route ~shards:Hot_tier.shards (Canon.key inst)));
        r)
      lines
  in
  (* Whole path in-process, then warm replay into a fresh server. *)
  let server = Server.create Server.default_config in
  Array.iter (fun l -> ignore (Server.handle_line server l)) inputs.Hot_tier.bases;
  let handled =
    Array.mapi
      (fun req l -> Span.with_ ~req "server.handle" (fun () -> Server.handle_line server l))
      lines
  in
  let warm_file = Filename.concat ctx.Ctx.dir "trace.crs-warm.jsonl" in
  let entries = Crs_serve.Warm.save server ~path:warm_file in
  Server.drain server;
  let fresh = Server.create Server.default_config in
  let keys =
    match Crs_serve.Warm.load warm_file with Ok k -> k | Error e -> Host.fail "%s" e
  in
  ignore (Span.with_ "warm.replay" (fun () -> Crs_serve.Warm.replay fresh keys));
  Server.drain fresh;
  let replay_s = total_us "warm.replay" /. 1e6 in
  (* One `crsched serve`: the frontend's share, and the tracing overhead. *)
  let one = Tier.serve ~crsched:ctx.Ctx.crsched ~dir:ctx.Ctx.dir ~name:"trace-one" in
  Tier.await_ready one;
  let conn = Load.Conn.connect one.Tier.socket in
  Array.iter (fun l -> ignore (Load.Conn.rpc conn l)) inputs.Hot_tier.bases;
  let before = Tier.stats conn in
  let plain, cpu_ms, ctxsw =
    process_cost [ Tier.pid one ] n (fun () -> replay conn lines ~span:false)
  in
  let after = Tier.stats conn in
  let traced = replay conn lines ~span:true in
  Tier.shutdown one conn;
  let d keys = f (Tier.int_at after keys - Tier.int_at before keys) in
  (* The balanced tier, warm-started as in the timed runs. *)
  let warm = Filename.concat ctx.Ctx.dir "trace-warm" in
  Hot_tier.prime ctx ~warm inputs;
  let tier = Hot_tier.start ctx ~warm "trace-tier" in
  Tier.await_ready tier;
  let tconn = Load.Conn.connect tier.Tier.socket in
  let through = replay tconn lines ~span:false in
  let tstats = Tier.stats tconn in
  Tier.shutdown tier tconn;
  let failed, wrong =
    Outcome.tally
      (List.concat_map
         (fun (path, responses) -> against ~path expected responses)
         [
           ("Server.handle_line", handled);
           ("in-process layers", layered);
           ("crsched serve", Array.map snd plain);
           ("crsched serve, traced", Array.map snd traced);
           ("crsched balance", Array.map snd through);
         ])
  in
  let one_p50 = p50 (lat plain) in
  let per_req v = v /. f n in
  {
    metrics =
      request_layers ~client_p50:one_p50
      @ [
          m "protocol.response_bytes" "bytes" (response_bytes handled);
          m "cache.hit_ratio" "1"
            (d [ "cache"; "hits" ] /. Float.max 1.0 (d [ "cache"; "hits" ] +. d [ "cache"; "misses" ]));
          m "cache.evictions_per_req" "count" (per_req (d [ "cache"; "evictions" ]));
          m "server.cpu_ms_per_req" "ms" cpu_ms;
          m "server.ctx_switches_per_req" "count" ctxsw;
          m "exec.parks_per_req" "count" (per_req (d [ "exec"; "parks" ]));
          m "exec.steals_per_req" "count" (per_req (d [ "exec"; "steals" ]));
          m "balancer.route_us" "us" (p50 (self "balancer.route"));
          m "balancer.hop_us" "us" (p50 (lat through) -. one_p50);
          m "balancer.refused" "count" (f (Tier.int_at tstats [ "balancer"; "refused" ]));
          m "warm.replay_s" "s" replay_s;
          m "warm.entries_per_s" "1/s" (f entries /. replay_s);
          m "trace.overhead_us" "us" (p50 (lat traced) -. one_p50);
        ];
    attempted = 5 * n;
    failed;
    wrong;
  }

(* ---- campaign-sweep traffic ---- *)

let campaign_pass ctx =
  let lo, hi = Campaign_sweep.range ctx 0 in
  let spec =
    {
      Crs_campaign.Spec.family = Crs_campaign.Spec.Uniform;
      m = 3;
      n = 6;
      granularity = 10;
      seed_lo = lo;
      seed_hi = hi;
      algorithms = [ R.Names.greedy_balance; R.Names.round_robin ];
      baseline = Crs_campaign.Spec.Exact;
      fuel = Some Campaign_sweep.fuel;
    }
  in
  let optimal = R.find_exn R.Names.optimal in
  let fuel = ref [] in
  for seed = lo to hi do
    let inst =
      Span.with_ ~req:seed "spec.instance" (fun () -> Crs_campaign.Spec.instance spec ~seed)
    in
    List.iter
      (fun a ->
        ignore (Span.with_ ~req:seed "heuristics.solve" (fun () -> R.solve (R.find_exn a) inst));
        let o = Span.with_ ~req:seed "registry.solve" (fun () -> R.solve optimal inst) in
        fuel := f o.R.counters.R.Counters.fuel_ticks :: !fuel)
      spec.Crs_campaign.Spec.algorithms
  done;
  let records = Crs_campaign.Runner.run ~domains:1 spec in
  let out = Filename.concat ctx.Ctx.dir "trace-report" in
  Span.with_ "report.write" (fun () ->
      Crs_campaign.Report.write_jsonl (Filename.concat out "campaign.jsonl") records;
      Crs_campaign.Report.write_summary
        (Filename.concat out "campaign-summary.json")
        (Crs_campaign.Report.summarize records));
  (* 1 and 2 domains back to back, twice, on the same spec. *)
  let sweep domains i =
    Campaign_sweep.sweep ctx ~domains ~lo ~hi ~name:(Printf.sprintf "trace-%dd-%d" domains i)
  in
  let pairs =
    List.map
      (fun i ->
        let a = sweep 1 i in
        (a, sweep 2 i))
      [ 0; 1 ]
  in
  let one = List.map fst pairs and two = List.map snd pairs in
  let items (s : Campaign_sweep.sweep) = List.length s.Campaign_sweep.item_ns in
  let wall l = sum (List.map (fun s -> s.Campaign_sweep.wall_s) l) in
  let rate l = f (List.fold_left (fun a s -> a + items s) 0 l) /. wall l in
  let item_p50 l =
    p50 (List.concat_map (fun s -> List.map (fun ns -> f ns /. 1e6) s.Campaign_sweep.item_ns) l)
  in
  let steals =
    let s =
      Campaign_sweep.sweep ctx ~extra:[ "--metrics" ] ~domains:2 ~lo ~hi ~name:"trace-metrics"
    in
    let path = Filename.concat ctx.Ctx.dir "trace-metrics/campaign-metrics.json" in
    match J.parse (Host.read_file path) with
    | Ok j -> f (Tier.int_at j [ "counters"; "exec.steal" ]) /. f (items s)
    | Error e -> Host.fail "campaign metrics: %s" e
  in
  let digests = List.sort_uniq compare (List.map Campaign_sweep.digest (one @ two)) in
  let heur = total_us "heuristics.solve" and base = total_us "registry.solve" in
  {
    metrics =
      [
        m "spec.instance_us" "us" (p50 (self "spec.instance"));
        m "heuristics.solve_us" "us" (p50 (self "heuristics.solve"));
        m "registry.fuel_ticks" "count" (p50 !fuel);
        m "runner.item_ms_p50_1d" "ms" (item_p50 one);
        m "runner.item_ms_p50_2d" "ms" (item_p50 two);
        m "runner.baseline_share" "1" (base /. (base +. heur));
        m "report.write_ms" "ms" (total_us "report.write" /. 1e3);
        m "exec.scaling_2d" "1" (rate two /. rate one);
        m "exec.cpu_util" "1" (sum (List.map (fun s -> s.Campaign_sweep.cpu_s) two) /. wall two);
        m "exec.steals_per_item" "count" steals;
      ];
    attempted = List.fold_left (fun a s -> a + items s) 0 (one @ two);
    failed = 0;
    wrong =
      (if List.length digests = 1 then []
       else [ "campaign digests differ between 1 and 2 domains" ]);
  }

(* ---- the run ---- *)

(* Where a metric is measured by several passes and the named workload's
   own pass is not one of them, the first of these supplies it. *)
let fallback = [ "hot-tier"; "exact-cold"; "campaign-sweep" ]

let run ctx ~workload ~trace_file =
  Span.calibrate ();
  let probe_ms = Host.median (Array.init 5 (fun _ -> Host.probe_slice ~pids:[])) in
  let passes =
    [
      ("exact-cold", fun () -> exact_pass ctx ~n:400);
      ("hot-tier", fun () -> hot_pass ctx ~n:2000);
      ("campaign-sweep", fun () -> campaign_pass ctx);
    ]
  in
  let archived = ref [] in
  let results =
    List.map
      (fun (w, pass) ->
        Span.recorded := [];
        let r = pass () in
        archived := !Span.recorded @ !archived;
        (w, r))
      passes
  in
  Span.recorded := !archived;
  Span.write trace_file;
  let order = workload :: List.filter (( <> ) workload) fallback in
  let metrics =
    List.fold_left
      (fun acc w ->
        List.fold_left
          (fun acc mt -> if List.exists (fun x -> x.name = mt.name) acc then acc else acc @ [ mt ])
          acc (List.assoc w results).metrics)
      [ m "host.probe_ms" "ms" probe_ms ]
      order
  in
  let total field = List.fold_left (fun a (_, r) -> a + field r) 0 results in
  ( metrics,
    total (fun r -> r.attempted),
    total (fun r -> r.failed),
    List.concat_map (fun (_, r) -> r.wrong) results,
    probe_ms )
