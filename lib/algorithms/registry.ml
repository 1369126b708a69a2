open Crs_core

module Names = struct
  let greedy_balance = "greedy-balance"
  let round_robin = "round-robin"
  let uniform = "uniform"
  let proportional = "proportional"
  let staircase = "staircase"
  let fewest_remaining_first = "fewest-remaining-first"
  let largest_requirement_first = "largest-requirement-first"
  let smallest_requirement_first = "smallest-requirement-first"
  let optimal = "optimal"
  let opt_two = "opt-two"
  let opt_two_pareto = "opt-two-pareto"
  let opt_config = "opt-config"
  let brute_force = "brute-force"
  let online_greedy_balance = "online-greedy-balance"
  let online_round_robin = "online-round-robin"
end

module Counters = struct
  type t = {
    states_expanded : int;
    dp_relaxations : int;
    configs_enumerated : int;
    memo_hits : int;
    memo_misses : int;
    fuel_ticks : int;
  }

  let zero =
    {
      states_expanded = 0;
      dp_relaxations = 0;
      configs_enumerated = 0;
      memo_hits = 0;
      memo_misses = 0;
      fuel_ticks = 0;
    }

  let to_assoc c =
    [
      ("states_expanded", c.states_expanded);
      ("dp_relaxations", c.dp_relaxations);
      ("configs_enumerated", c.configs_enumerated);
      ("memo_hits", c.memo_hits);
      ("memo_misses", c.memo_misses);
      ("fuel_ticks", c.fuel_ticks);
    ]
end

type kind = Exact | Approx | Heuristic | Online

let kind_to_string = function
  | Exact -> "exact"
  | Approx -> "approx"
  | Heuristic -> "heuristic"
  | Online -> "online"

type requires = {
  min_m : int;
  max_m : int option;
  unit_size_only : bool;
  fuel_aware : bool;
}

type outcome = {
  makespan : int;
  schedule : Schedule.t option;
  counters : Counters.t;
}

type solver = {
  name : string;
  kind : kind;
  about : string;
  requires : requires;
  witness : bool;
  solve : Instance.t -> outcome;
}

type failure = Inapplicable of string | Timeout of int

(* A step policy run to completion: witness schedule, no native
   counters (Fuel delta covers nothing — policies don't tick). *)
let of_policy (name, kind, about, policy) =
  {
    name;
    kind;
    about;
    requires = { min_m = 1; max_m = None; unit_size_only = false; fuel_aware = false };
    witness = true;
    solve =
      (fun instance ->
        let schedule = Policy.run policy instance in
        let makespan = Execution.makespan (Execution.run_exn instance schedule) in
        { makespan; schedule = Some schedule; counters = Counters.zero });
  }

(* Every exact solver needs unit-size jobs and ticks fuel; they differ
   in the processor counts they accept, whether they build a witness,
   and how their native counters map onto {!Counters}. *)
let exact ~name ~about ?max_m ~min_m ~witness solve =
  {
    name;
    kind = Exact;
    about;
    requires = { min_m; max_m; unit_size_only = true; fuel_aware = true };
    witness;
    solve;
  }

let opt_two instance =
  let sol = Opt_two.solve instance in
  {
    makespan = sol.Opt_two.makespan;
    schedule = Some sol.Opt_two.schedule;
    counters =
      {
        Counters.zero with
        states_expanded = sol.Opt_two.counters.Opt_two.cells_expanded;
        dp_relaxations = sol.Opt_two.counters.Opt_two.relaxations;
      };
  }

let opt_config instance =
  let sol = Opt_config.solve instance in
  {
    makespan = sol.Opt_config.makespan;
    schedule = Some sol.Opt_config.schedule;
    counters =
      {
        Counters.zero with
        states_expanded = List.fold_left ( + ) 0 sol.Opt_config.stats.Opt_config.layers;
        configs_enumerated = sol.Opt_config.stats.Opt_config.generated;
      };
  }

let exact_table =
  [
    exact ~name:Names.optimal
      ~about:"best exact solver for the instance (Opt_two if m = 2, else Opt_config)"
      ~min_m:1 ~witness:true (fun instance ->
        if Instance.m instance = 2 then opt_two instance else opt_config instance);
    exact ~name:Names.opt_two
      ~about:"O(n^2) dynamic program for two processors (paper, Algorithm 1)"
      ~min_m:2 ~max_m:2 ~witness:true opt_two;
    exact ~name:Names.opt_two_pareto
      ~about:"Pareto-frontier DP auditing Lemma 3's sufficient statistic"
      ~min_m:2 ~max_m:2 ~witness:false (fun instance ->
        {
          makespan = Opt_two_pareto.makespan instance;
          schedule = None;
          counters = Counters.zero;
        });
    exact ~name:Names.opt_config
      ~about:"layered configuration enumeration for any m (paper, Algorithm 2)"
      ~min_m:1 ~witness:true opt_config;
    exact ~name:Names.brute_force
      ~about:"reference DFS branch-and-bound; exponential, tiny instances only"
      ~min_m:1 ~witness:false (fun instance ->
        let makespan, c = Brute_force.solve instance in
        {
          makespan;
          schedule = None;
          counters =
            {
              Counters.zero with
              states_expanded = c.Brute_force.visited;
              memo_hits = c.Brute_force.memo_hits;
              memo_misses = c.Brute_force.memo_misses;
            };
        });
  ]

let policy_table =
  [
    ( Names.greedy_balance,
      Approx,
      "(2 - 1/m)-approximation; balances remaining job counts (Section 8.3)",
      Greedy_balance.policy );
    ( Names.round_robin,
      Approx,
      "2-approximation; phase-synchronous processor order (Section 4.2)",
      Round_robin.policy );
    (Names.uniform, Heuristic, "equal split among active processors", Policy.uniform);
    ( Names.proportional,
      Heuristic,
      "split proportional to remaining work of active jobs",
      Policy.proportional );
    ( Names.staircase,
      Heuristic,
      "greedy fill by fixed processor priority, highest index first",
      Heuristics.staircase );
    ( Names.fewest_remaining_first,
      Heuristic,
      "greedy fill prioritizing processors with fewer remaining jobs",
      Heuristics.fewest_remaining_first );
    ( Names.largest_requirement_first,
      Heuristic,
      "greedy fill prioritizing the largest active requirement",
      Heuristics.largest_requirement_first );
    ( Names.smallest_requirement_first,
      Heuristic,
      "greedy fill prioritizing the smallest active requirement",
      Heuristics.smallest_requirement_first );
  ]

let online_table =
  [
    ( Names.online_greedy_balance,
      Online,
      "GreedyBalance through the semi-online view interface",
      Crs_core.Online.(to_policy greedy_balance) );
    ( Names.online_round_robin,
      Online,
      "RoundRobin through the semi-online view interface",
      Crs_core.Online.(to_policy round_robin) );
  ]

let all : solver list =
  List.map of_policy policy_table @ exact_table @ List.map of_policy online_table

let names = List.map (fun s -> s.name) all
let find wanted = List.find_opt (fun s -> String.equal s.name wanted) all

let find_exn wanted =
  match find wanted with
  | Some s -> s
  | None ->
    invalid_arg
      (Printf.sprintf "Registry.find_exn: unknown solver %S (valid: %s)" wanted
         (String.concat ", " names))

let applicability solver instance =
  let r = solver.requires in
  let n = solver.name in
  let m = Instance.m instance in
  if m < r.min_m then
    Error (Printf.sprintf "%s requires m >= %d, instance has m = %d" n r.min_m m)
  else
    match r.max_m with
    | Some mx when m > mx ->
      Error (Printf.sprintf "%s requires m <= %d, instance has m = %d" n mx m)
    | _ ->
      if r.unit_size_only && not (Instance.is_unit_size instance) then
        Error (Printf.sprintf "%s requires unit-size jobs" n)
      else Ok ()

let run ?fuel solver instance =
  match applicability solver instance with
  | Error reason -> Error (Inapplicable reason)
  | Ok () -> (
    let before = Crs_util.Fuel.ticks () in
    let metered () =
      let out = solver.solve instance in
      let spent = Crs_util.Fuel.ticks () - before in
      { out with counters = { out.counters with Counters.fuel_ticks = spent } }
    in
    (* Root span per solve, inside the budget so a timed-out span records
       the Out_of_fuel; counters become attributes at close so traces
       carry the same numbers as campaign JSONL. All deterministic (fuel,
       not wall time), so span signatures stay pool-size independent. *)
    let traced () =
      if Crs_obs.Trace.enabled () then
        Crs_obs.Trace.with_span
          ~attrs:[ ("algorithm", Crs_obs.Trace.Str solver.name) ]
          "registry.solve"
          (fun () ->
            let out = metered () in
            Crs_obs.Trace.add_attrs
              (("makespan", Crs_obs.Trace.Int out.makespan)
              :: List.map
                   (fun (k, v) -> (k, Crs_obs.Trace.Int v))
                   (Counters.to_assoc out.counters));
            out)
      else metered ()
    in
    (* Without [~fuel] no budget is set here, so an enclosing one still
       raises Out_of_fuel to its owner. *)
    match
      match fuel with
      | None -> traced ()
      | Some _ -> Crs_util.Fuel.with_fuel fuel traced
    with
    | exception Crs_util.Fuel.Out_of_fuel when Option.is_some fuel ->
      Error (Timeout (Crs_util.Fuel.ticks () - before))
    | out ->
      if Crs_obs.Metrics.enabled () then
        List.iter
          (fun (k, v) ->
            Crs_obs.Metrics.add
              (Crs_obs.Metrics.counter (Printf.sprintf "solver.%s.%s" solver.name k))
              v)
          (("solves", 1) :: Counters.to_assoc out.counters);
      Ok out)

let solve solver instance =
  match run solver instance with
  | Ok out -> out
  | Error (Inapplicable reason) -> invalid_arg ("Registry.solve: " ^ reason)
  | Error (Timeout _) -> assert false (* no budget without [~fuel] *)

let policies = List.map (fun (n, _, _, p) -> (n, p)) (policy_table @ online_table)
