open Crs_core
module Registry = Crs_algorithms.Registry

(* Default name set for single-instance comparison tables: every
   policy-backed algorithm plus the "optimal" exact dispatcher, in
   registry order. The specialized exact variants (opt-two,
   opt-two-pareto, …) are opt-in by name. *)
let default_names =
  List.filter
    (fun n ->
      match (Registry.find_exn n).Registry.kind with
      | Registry.Exact -> String.equal n Registry.Names.optimal
      | _ -> true)
    Registry.names

(* Monotonic, so a wall-clock step can never record a negative
   [wall_ns]. *)
let now_ns () = Int64.to_int (Crs_obs.Clock.monotonic_ns ())

let optimal = Registry.find_exn Registry.Names.optimal

(* Both phases, the algorithm and then the baseline, solve through
   [Registry.run] under the spec's fuel: a solver whose capability record
   rejects the instance (or a lower-bound baseline on sized jobs) records
   Not_applicable instead of crashing the item, and running out of fuel
   records a Timeout instead of hanging the campaign. Any other exception
   is captured so one poisoned instance never kills the run. *)
let attempt f =
  match f () with
  | Ok v -> Ok v
  | Error (Registry.Inapplicable reason) -> Error (Report.Not_applicable reason)
  | Error (Registry.Timeout _) -> Error Report.Timeout
  | exception e -> Error (Report.Error (Printexc.to_string e))

let solve_baseline ~fuel baseline instance =
  attempt (fun () ->
      match baseline with
      | Spec.Exact ->
        Result.map (fun o -> o.Registry.makespan) (Registry.run ?fuel optimal instance)
      | Spec.Lower_bound ->
        (* The bound is read off the schedule hypergraph, which exists
           for unit-size jobs only. *)
        if Instance.is_unit_size instance then
          Ok (Crs_algorithms.Solver.certified_lower_bound instance)
        else Error (Registry.Inapplicable "lower-bound requires unit-size jobs"))

(* The records of [names] on one instance, in order, with ids from
   [first_id]. The baseline depends on the instance alone, so it is
   solved at most once, on the first algorithm that completes, and its
   result, an error included, is kept for the later records. A record's
   [wall_ns] runs from the end of the previous record, from [t0] for the
   first. *)
let records ~t0 ~fuel ~baseline ~family ~m ~n ~granularity ~seed ~first_id
    instance names =
  let digest = Digest.to_hex (Digest.string (Instance.to_string instance)) in
  let solved = lazy (solve_baseline ~fuel baseline instance) in
  let evaluate algorithm =
    match Registry.find algorithm with
    | None ->
      (Report.Error (Printf.sprintf "unknown algorithm %s" algorithm), None, None, None)
    | Some solver -> (
      match attempt (fun () -> Registry.run ?fuel solver instance) with
      | Error outcome -> (outcome, None, None, None)
      | Ok out -> (
        let makespan = Some out.Registry.makespan in
        let counters = Some out.Registry.counters in
        match Lazy.force solved with
        | Ok opt -> (Report.Done, makespan, Some opt, counters)
        | Error outcome -> (outcome, makespan, None, counters)))
  in
  let last = ref t0 in
  List.mapi
    (fun i algorithm ->
      let id = first_id + i in
      let outcome, makespan, optimum, counters =
        (* The id is unique within a campaign, so root spans sort into a
           total order however the pool distributed the seeds — that is
           what makes Trace.signature pool-size independent. *)
        Crs_obs.Trace.with_span_l
          (fun () ->
            let open Crs_obs.Trace in
            [ ("id", Int id); ("family", Str family) ]
            @ (match seed with Some s -> [ ("seed", Int s) ] | None -> [])
            @ [ ("algorithm", Str algorithm) ])
          "campaign.item"
          (fun () -> evaluate algorithm)
      in
      if Crs_obs.Metrics.enabled () then
        Crs_obs.Metrics.incr
          (Crs_obs.Metrics.counter
             ("campaign.outcome." ^ Report.outcome_label outcome));
      let ratio =
        match (makespan, optimum) with
        | Some ms, Some opt when opt > 0 -> Some (float_of_int ms /. float_of_int opt)
        | _ -> None
      in
      let now = now_ns () in
      let wall_ns = now - !last in
      last := now;
      {
        Report.id;
        family;
        m;
        n;
        granularity;
        seed;
        digest;
        algorithm;
        outcome;
        makespan;
        baseline = Spec.baseline_to_string baseline;
        optimum;
        ratio;
        counters;
        wall_ns;
      })
    names

(* One campaign task: regenerate the seed's instance and evaluate
   [algorithms] on it. *)
let seed_records spec ~seed ~first_id algorithms =
  let t0 = now_ns () in
  let instance = Spec.instance spec ~seed in
  records ~t0 ~fuel:spec.Spec.fuel ~baseline:spec.Spec.baseline
    ~family:(Spec.family_to_string spec.Spec.family)
    ~m:spec.Spec.m ~n:spec.Spec.n ~granularity:(Some spec.Spec.granularity)
    ~seed:(Some seed) ~first_id instance algorithms

let run_item spec (item : Spec.item) =
  List.hd (seed_records spec ~seed:item.seed ~first_id:item.id [ item.algorithm ])

let map_seeds ?(domains = 1) spec f =
  let seeds = Array.init (Spec.seed_count spec) (fun k -> spec.Spec.seed_lo + k) in
  if domains <= 1 then Array.map f seeds
  else begin
    (* Submit chunked slices of seeds directly to the work-stealing
       executor. Chunks only bound the submission overhead; load
       balancing across uneven seed costs comes from stealing, so a
       domain that drew the cheap seeds takes slices from the one that
       drew the brute-force-heavy ones. Results stay in seed order
       because each slice writes only its own slots. *)
    let chunk = Stdlib.max 1 (Array.length seeds / (domains * 8)) in
    Crs_exec.Exec.map ~chunk ~domains f seeds
  end

let run ?domains spec =
  match Spec.validate spec with
  | Stdlib.Error msg -> invalid_arg ("Runner.run: " ^ msg)
  | Ok spec ->
    let k = List.length spec.Spec.algorithms in
    map_seeds ?domains spec (fun seed ->
        seed_records spec ~seed ~first_id:((seed - spec.Spec.seed_lo) * k)
          spec.Spec.algorithms)
    |> Array.to_list |> List.concat |> Array.of_list

let compare_records ?(names = default_names) ?(baseline = Spec.Exact) ?fuel
    ~family instance =
  records ~t0:(now_ns ()) ~fuel ~baseline ~family ~m:(Instance.m instance)
    ~n:(Instance.n_max instance) ~granularity:None ~seed:None ~first_id:0 instance
    names
