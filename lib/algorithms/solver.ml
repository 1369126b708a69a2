module Q = Crs_num.Rational
open Crs_core

(* Thin policy layer over {!Registry}: picks which registered exact
   solver answers a query; all dispatch and instrumentation lives in the
   registry itself. *)

let optimal_makespan instance =
  (Registry.solve (Registry.find_exn Registry.Names.optimal) instance).Registry.makespan

let ratio ~algorithm instance =
  let opt = optimal_makespan instance in
  let alg = algorithm instance in
  if opt = 0 then
    if alg = 0 then Q.one
    else
      invalid_arg
        (Printf.sprintf
           "Solver.ratio: optimum is 0 but algorithm took %d steps (ratio undefined)"
           alg)
  else Q.of_ints alg opt

let certified_lower_bound instance =
  let schedule = Greedy_balance.schedule instance in
  let trace = Execution.run_exn instance schedule in
  let graph = Crs_hypergraph.Sched_graph.of_trace trace in
  Crs_hypergraph.Bounds.combined graph instance

let ratio_upper_bound instance =
  let gb = Greedy_balance.makespan instance in
  let lb = certified_lower_bound instance in
  if lb = 0 then Q.one else Q.of_ints gb lb
