open Crs_core
module Registry = Crs_algorithms.Registry

(* Default name set for single-instance comparison tables: every
   policy-backed algorithm plus the "optimal" exact dispatcher, in
   registry order. The specialized exact variants (opt-two, opt-two-pq,
   …) are opt-in by name. *)
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

type 'a metered =
  | Value of 'a
  | Ran_out
  | Raised of string
  | Inapplicable of string

let metered fuel f =
  try Value (Crs_util.Fuel.with_fuel fuel f) with
  | Crs_util.Fuel.Out_of_fuel -> Ran_out
  | e -> Raised (Printexc.to_string e)

(* Evaluate one algorithm on one instance. The registry's capability
   check runs first, so an exact solver swept over a family outside its
   range records Not_applicable instead of crashing the item. Each phase
   (algorithm, then baseline) gets its own fuel budget; running out in
   either records a Timeout instead of hanging the campaign, and any
   other exception is captured so one poisoned instance never kills the
   run. *)
let evaluate ~fuel ~baseline ~algorithm instance =
  let counters = ref None in
  let makespan_result =
    match Registry.find algorithm with
    | None -> Raised (Printf.sprintf "unknown algorithm %s" algorithm)
    | Some solver -> (
      match Registry.applicability solver instance with
      | Stdlib.Error reason -> Inapplicable reason
      | Ok () ->
        metered fuel (fun () ->
            let out = Registry.solve solver instance in
            counters := Some out.Registry.counters;
            out.Registry.makespan))
  in
  let baseline_result =
    match makespan_result with
    | Ran_out | Raised _ | Inapplicable _ -> Value 0 (* unused *)
    | Value _ ->
      metered fuel (fun () ->
          match baseline with
          | Spec.Exact -> Crs_algorithms.Solver.optimal_makespan instance
          | Spec.Lower_bound -> Crs_algorithms.Solver.certified_lower_bound instance)
  in
  let outcome, makespan, optimum =
    match (makespan_result, baseline_result) with
    | Inapplicable reason, _ -> (Report.Not_applicable reason, None, None)
    | Ran_out, _ -> (Report.Timeout, None, None)
    | Raised msg, _ -> (Report.Error msg, None, None)
    | Value ms, Value opt -> (Report.Done, Some ms, Some opt)
    | Value ms, Ran_out -> (Report.Timeout, Some ms, None)
    | Value ms, Raised msg -> (Report.Error msg, Some ms, None)
    | Value _, Inapplicable _ -> assert false (* baseline is never checked *)
  in
  let ratio =
    match (makespan, optimum) with
    | Some ms, Some opt when opt > 0 -> Some (float_of_int ms /. float_of_int opt)
    | _ -> None
  in
  (outcome, makespan, optimum, ratio, !counters)

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
