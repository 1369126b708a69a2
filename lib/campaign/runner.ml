open Crs_core
module Registry = Crs_algorithms.Registry

(* Default name set for single-instance comparison tables: every
   policy-backed algorithm plus the "optimal" exact dispatcher, in
   registry order. The specialized exact variants (opt-two,
   opt-two-pareto, …) are opt-in by name. *)
let default_names =
  List.filter
    (fun n ->
      match Registry.kind (Registry.find_exn n) with
      | Registry.Exact -> String.equal n Registry.Names.optimal
      | _ -> true)
    Registry.names

let algorithm_names = Registry.names

(* Monotonic, so a wall-clock step can never record a negative
   [wall_ns]. *)
let now_ns () = Int64.to_int (Crs_obs.Clock.monotonic_ns ())

let optimal = Registry.find_exn Registry.Names.optimal

(* Evaluate one algorithm on one instance. Both phases, the algorithm
   and then the exact baseline, solve through [Registry.run] under the
   spec's fuel: a solver whose capability record rejects the instance
   (or a lower-bound baseline on sized jobs) records Not_applicable
   instead of crashing the item, and running out of fuel
   records a Timeout instead of hanging the campaign. Any other
   exception is captured so one poisoned instance never kills the
   run. *)
let evaluate ~fuel ~baseline ~algorithm instance =
  let attempt f =
    match f () with
    | Ok v -> Ok v
    | Error (Registry.Inapplicable reason) -> Error (Report.Not_applicable reason)
    | Error (Registry.Timeout _) -> Error Report.Timeout
    | exception e -> Error (Report.Error (Printexc.to_string e))
  in
  let result =
    match Registry.find algorithm with
    | None -> Error (Report.Error (Printf.sprintf "unknown algorithm %s" algorithm))
    | Some solver -> attempt (fun () -> Registry.run ?fuel solver instance)
  in
  let outcome, makespan, optimum, counters =
    match result with
    | Error outcome -> (outcome, None, None, None)
    | Ok out -> (
      let optimum =
        attempt (fun () ->
            match baseline with
            | Spec.Exact ->
              Result.map
                (fun o -> o.Registry.makespan)
                (Registry.run ?fuel optimal instance)
            | Spec.Lower_bound ->
              (* The bound is read off the schedule hypergraph, which
                 exists for unit-size jobs only. *)
              if Instance.is_unit_size instance then
                Ok (Crs_algorithms.Solver.certified_lower_bound instance)
              else Error (Registry.Inapplicable "lower-bound requires unit-size jobs"))
      in
      let counters = Some out.Registry.counters in
      match optimum with
      | Ok opt -> (Report.Done, Some out.Registry.makespan, Some opt, counters)
      | Error outcome -> (outcome, Some out.Registry.makespan, None, counters))
  in
  let ratio =
    match (makespan, optimum) with
    | Some ms, Some opt when opt > 0 -> Some (float_of_int ms /. float_of_int opt)
    | _ -> None
  in
  (outcome, makespan, optimum, ratio, counters)

let run_item spec (item : Spec.item) =
  let t0 = now_ns () in
  let instance = Spec.instance spec ~seed:item.seed in
  let digest = Digest.to_hex (Digest.string (Instance.to_string instance)) in
  let outcome, makespan, optimum, ratio, counters =
    (* The item id is unique within a campaign, so root spans sort into
       a total order however the pool distributed the items — that is
       what makes Trace.signature pool-size independent. *)
    Crs_obs.Trace.with_span_l
      (fun () ->
        [
          ("id", Crs_obs.Trace.Int item.id);
          ("family", Crs_obs.Trace.Str (Spec.family_to_string spec.Spec.family));
          ("seed", Crs_obs.Trace.Int item.seed);
          ("algorithm", Crs_obs.Trace.Str item.algorithm);
        ])
      "campaign.item"
      (fun () ->
        evaluate ~fuel:spec.Spec.fuel ~baseline:spec.Spec.baseline
          ~algorithm:item.algorithm instance)
  in
  if Crs_obs.Metrics.enabled () then
    Crs_obs.Metrics.incr
      (Crs_obs.Metrics.counter
         ("campaign.outcome." ^ Report.outcome_label outcome));
  {
    Report.id = item.id;
    family = Spec.family_to_string spec.Spec.family;
    m = spec.Spec.m;
    n = spec.Spec.n;
    granularity = Some spec.Spec.granularity;
    seed = Some item.seed;
    digest;
    algorithm = item.algorithm;
    outcome;
    makespan;
    baseline = Spec.baseline_to_string spec.Spec.baseline;
    optimum;
    ratio;
    counters;
    wall_ns = now_ns () - t0;
  }

let run ?(domains = 1) spec =
  match Spec.validate spec with
  | Stdlib.Error msg -> invalid_arg ("Runner.run: " ^ msg)
  | Ok spec ->
    let items = Spec.expand spec in
    if domains <= 1 then Array.map (run_item spec) items
    else begin
      (* Submit chunked slices directly to the work-stealing executor.
         Chunks only bound the submission overhead; load balancing
         across uneven item costs comes from stealing, so a domain that
         drew the cheap seeds takes slices from the one that drew the
         brute-force-heavy ones. Results stay in item order because
         each slice writes only its own report slots. *)
      let chunk = Stdlib.max 1 (Array.length items / (domains * 8)) in
      Crs_exec.Exec.map ~chunk ~domains (run_item spec) items
    end

let compare_records ?(names = default_names) ?(baseline = Spec.Exact) ?fuel
    ~family instance =
  let digest = Digest.to_hex (Digest.string (Instance.to_string instance)) in
  List.mapi
    (fun id name ->
      let t0 = now_ns () in
      let outcome, makespan, optimum, ratio, counters =
        evaluate ~fuel ~baseline ~algorithm:name instance
      in
      {
        Report.id;
        family;
        m = Instance.m instance;
        n = Instance.n_max instance;
        granularity = None;
        seed = None;
        digest;
        algorithm = name;
        outcome;
        makespan;
        baseline = Spec.baseline_to_string baseline;
        optimum;
        ratio;
        counters;
        wall_ns = now_ns () - t0;
      })
    names
