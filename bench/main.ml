(* Benchmark & experiment harness.

   The paper has no measured tables; its evaluation artifacts are
   Figures 1-5 and Theorems 3-8. Each experiment below regenerates the
   corresponding series and prints it next to the paper's claim (see
   DESIGN.md section 5 for the index and EXPERIMENTS.md for recorded
   results). Run `dune exec bench/main.exe` for all experiments, pass an
   experiment id (f1 f2 f3 f4 f5 t3 t5 t6 t7 l56 mc ext bp dc fa mr
   ablation campaign registry fuzz num obs dp) to run one, `micro` for
   the runtime micro-benchmarks, or `smoke` for a tiny-n pass over the
   gated experiments and `micro` that judges no timing gates — this is
   what `dune build @bench-smoke` runs. `num` also accepts `--check`
   (fast differential sample only). Every timing goes through
   Harness. *)

module Q = Crs_num.Rational
open Crs_core
module A = Crs_generators.Adversarial
module T = Crs_render.Table
module R = Crs_algorithms.Registry
module H = Harness

(* Name-based dispatch through the solver registry; experiments that
   exercise a specific implementation detail (pruning flags, tie-break
   variants) keep their direct module calls. *)
let solve_by name instance = (R.solve (R.find_exn name) instance).R.makespan

let banner id title claim =
  Printf.printf "\n=== %s: %s ===\npaper: %s\n\n" (String.uppercase_ascii id) title claim

(* ---------- F1: Figure 1, hypergraph ---------- *)

let exp_f1 () =
  banner "f1" "scheduling hypergraph of Figure 1"
    "6 edges e1..e6 grouped into components C1..C3 (left to right)";
  let schedule =
    Policy.run Crs_algorithms.Heuristics.smallest_requirement_first A.figure1
  in
  let trace = Execution.run_exn A.figure1 schedule in
  let g = Crs_hypergraph.Sched_graph.of_trace trace in
  Format.printf "%a@." Crs_hypergraph.Sched_graph.pp g;
  Printf.printf "Lemma 5 bound %d, Lemma 6 bound %d, exact optimum %d\n"
    (Crs_hypergraph.Bounds.lemma5 g)
    (Crs_hypergraph.Bounds.lemma6_int g)
    (Crs_algorithms.Solver.optimal_makespan A.figure1)

(* ---------- F2: Figure 2, nested vs unnested ---------- *)

let exp_f2 () =
  banner "f2" "nested vs unnested schedules (Figure 2)"
    "both schedules non-wasting and progressive; only 2b nested";
  let row name sched =
    let trace = Execution.run_exn A.figure2 sched in
    let flag p = if p trace then "yes" else "no" in
    [
      name;
      string_of_int (Execution.makespan trace);
      flag Properties.is_non_wasting;
      flag Properties.is_progressive;
      flag Properties.is_nested;
    ]
  in
  print_string
    (T.render
       ~header:[ "schedule"; "makespan"; "non-wasting"; "progressive"; "nested" ]
       [
         row "Figure 2b" A.figure2_nested_schedule;
         row "Figure 2c" A.figure2_unnested_schedule;
       ])

(* ---------- F3 / T3 lower-bound family ---------- *)

let exp_f3 () =
  banner "f3" "RoundRobin worst-case family (Figure 3)"
    "RoundRobin needs 2n steps, OPT n+1; ratio tends to 2";
  let rows =
    List.map
      (fun n ->
        let instance = A.round_robin_family ~n in
        let rr = Crs_algorithms.Round_robin.makespan instance in
        let witness =
          Execution.makespan
            (Execution.run_exn instance (A.round_robin_family_opt_schedule ~n))
        in
        let prr, popt = A.round_robin_family_predicted ~n in
        [
          string_of_int n;
          string_of_int rr;
          string_of_int prr;
          string_of_int witness;
          string_of_int popt;
          Printf.sprintf "%.4f" (float_of_int rr /. float_of_int witness);
        ])
      [ 5; 10; 25; 50; 100; 250 ]
  in
  print_string
    (T.render
       ~header:[ "n"; "RR"; "RR(pred)"; "OPT"; "OPT(pred)"; "ratio" ]
       rows)

(* ---------- T3: RoundRobin ratio on random instances ---------- *)

let exp_t3 () =
  banner "t3" "Theorem 3 on random instances"
    "RoundRobin <= 2 OPT always (worst case exactly 2)";
  let st = Random.State.make [| 303 |] in
  let trials = 150 in
  let worst = ref Q.zero in
  let sum = ref 0.0 in
  for _ = 1 to trials do
    let instance =
      Crs_generators.Random_gen.instance
        ~spec:{ Crs_generators.Random_gen.default_spec with m = 2; jobs_max = 4 }
        st
    in
    let rr = solve_by R.Names.round_robin instance in
    let opt = solve_by R.Names.opt_two instance in
    let ratio = Q.of_ints rr opt in
    if Q.(ratio > !worst) then worst := ratio;
    sum := !sum +. Q.to_float ratio
  done;
  Printf.printf "%d random 2-processor instances: mean ratio %.3f, worst %.3f (bound 2.0)\n"
    trials (!sum /. float_of_int trials) (Q.to_float !worst);
  assert Q.(!worst <= Q.two)

(* ---------- F4: Theorem 4 gadget ---------- *)

let exp_f4 () =
  banner "f4" "Partition reduction (Figure 4 / Theorem 4 / Corollary 1)"
    "optimal makespan 4 iff YES; NO forces >= 5 (5/4 gap)";
  let st = Random.State.make [| 404 |] in
  let rows = ref [] in
  let add p =
    let truth = Crs_reduction.Partition.is_yes p in
    let opt =
      Crs_algorithms.Opt_config.makespan (Crs_reduction.Reduce.to_crsharing p)
    in
    rows :=
      [
        String.concat ";"
          (Array.to_list (Array.map string_of_int p.Crs_reduction.Partition.elements));
        (if truth then "YES" else "NO");
        string_of_int opt;
        (if (opt = 4) = truth then "ok" else "MISMATCH");
      ]
      :: !rows
  in
  add (Crs_reduction.Partition.make [| 1; 2; 3 |]);
  add (Crs_reduction.Partition.make [| 3; 3; 3; 3; 2 |]);
  for _ = 1 to 4 do
    add (Crs_reduction.Partition.random_yes ~n:4 ~max_value:9 st)
  done;
  for _ = 1 to 3 do
    add (Crs_reduction.Partition.random_no ~n:5 ~max_value:7 st)
  done;
  print_string
    (T.render ~header:[ "elements"; "partition"; "opt makespan"; "agree" ]
       (List.rev !rows))

(* ---------- F5 / T8: GreedyBalance worst case ---------- *)

let exp_f5 () =
  banner "f5" "GreedyBalance worst-case family (Figure 5 / Theorem 8)"
    "GreedyBalance spends 2m-1 steps per block, OPT ~m; ratio tends to 2-1/m";
  let rows =
    List.map
      (fun (m, blocks) ->
        let instance = A.greedy_balance_family ~m ~blocks () in
        let gb = solve_by R.Names.greedy_balance instance in
        let pred = A.greedy_balance_family_predicted ~m ~blocks in
        let stair = solve_by R.Names.staircase instance in
        let lb = Lower_bounds.combined instance in
        [
          Printf.sprintf "%d" m;
          Printf.sprintf "%d" blocks;
          string_of_int gb;
          string_of_int pred;
          string_of_int stair;
          string_of_int lb;
          Printf.sprintf "%.4f" (float_of_int gb /. float_of_int stair);
          Printf.sprintf "%.4f" (2.0 -. (1.0 /. float_of_int m));
        ])
      [ (2, 2); (2, 8); (2, 32); (3, 3); (3, 9); (3, 27); (4, 4); (4, 16); (5, 10) ]
  in
  print_string
    (T.render
       ~header:
         [ "m"; "blocks"; "GB"; "GB(pred)"; "staircase"; "work-LB"; "ratio"; "2-1/m" ]
       rows)

(* ---------- T5: two-processor exact algorithm ---------- *)

let exp_t5 () =
  banner "t5" "OptResAssignment (Theorem 5)"
    "optimal for m=2, O(n^2) time; the PQ variant visits fewer states";
  let st = Random.State.make [| 505 |] in
  let agree = ref 0 in
  let trials = 100 in
  for _ = 1 to trials do
    let instance = Helpers_bench.random_two_proc st 3 in
    if
      Crs_algorithms.Opt_two.makespan instance
      = Crs_algorithms.Brute_force.makespan instance
    then incr agree
  done;
  Printf.printf "agreement with brute force: %d/%d\n\n" !agree trials;
  let rows =
    List.map
      (fun n ->
        let instance = Helpers_bench.random_two_proc ~n st 0 in
        let ms, dt_arr = H.time (fun () -> Crs_algorithms.Opt_two.makespan instance) in
        let pq, dt_pq = H.time (fun () -> Crs_algorithms.Opt_two_pq.run instance) in
        assert (ms = pq.Crs_algorithms.Opt_two_pq.makespan);
        let expanded = pq.Crs_algorithms.Opt_two_pq.expanded in
        [
          string_of_int n;
          string_of_int ms;
          Printf.sprintf "%.1f" (dt_arr *. 1000.);
          Printf.sprintf "%.1f" (dt_pq *. 1000.);
          Printf.sprintf "%d" ((n + 1) * (n + 1));
          string_of_int expanded;
        ])
      [ 25; 50; 100; 200; 400 ]
  in
  print_string
    (T.render
       ~header:[ "n per proc"; "OPT"; "array ms"; "pq ms"; "table states"; "pq states" ]
       rows);
  (* Lemma 3 audit: how large do Pareto frontiers get when we refuse to
     collapse each cell to the lexicographic best pair? *)
  let st = Random.State.make [| 515 |] in
  Printf.printf "\nLemma 3 audit (Pareto frontier per DP cell):\n";
  List.iter
    (fun n ->
      let instance = Helpers_bench.random_two_proc ~n st 0 in
      let lex = Crs_algorithms.Opt_two.makespan instance in
      let pareto = Crs_algorithms.Opt_two_pareto.makespan instance in
      let mx, mean = Crs_algorithms.Opt_two_pareto.frontier_sizes instance in
      Printf.printf
        "  n=%-4d lex OPT %d = pareto OPT %d | frontier max %d, mean %.2f\n" n lex
        pareto mx mean;
      assert (lex = pareto))
    [ 10; 20; 40 ]

(* ---------- T6: configuration enumeration ---------- *)

let exp_t6 () =
  banner "t6" "OptResAssignment2 (Theorem 6)"
    "optimal for fixed m; domination pruning keeps layers polynomial";
  let st = Random.State.make [| 606 |] in
  let rows =
    List.concat_map
      (fun m ->
        List.map
          (fun n ->
            let instance =
              Crs_generators.Random_gen.equal_rows ~m ~n ~granularity:10 st
            in
            let sol = Crs_algorithms.Opt_config.solve instance in
            let sol_np = Crs_algorithms.Opt_config.solve ~prune:false instance in
            assert (sol.Crs_algorithms.Opt_config.makespan = sol_np.Crs_algorithms.Opt_config.makespan);
            let stats = sol.Crs_algorithms.Opt_config.stats in
            let stats_np = sol_np.Crs_algorithms.Opt_config.stats in
            let max_layer = List.fold_left max 0 stats.Crs_algorithms.Opt_config.layers in
            let max_layer_np =
              List.fold_left max 0 stats_np.Crs_algorithms.Opt_config.layers
            in
            [
              string_of_int m;
              string_of_int n;
              string_of_int sol.Crs_algorithms.Opt_config.makespan;
              string_of_int stats.Crs_algorithms.Opt_config.generated;
              string_of_int max_layer;
              string_of_int stats_np.Crs_algorithms.Opt_config.generated;
              string_of_int max_layer_np;
            ])
          [ 2; 3; 4 ])
      [ 2; 3; 4 ]
  in
  print_string
    (T.render
       ~header:
         [ "m"; "n"; "OPT"; "generated"; "max layer"; "gen (no prune)"; "layer (no prune)" ]
       rows)

(* ---------- T7: balanced schedules are (2-1/m)-approximations ---------- *)

let exp_t7 () =
  banner "t7" "Theorem 7 on random instances"
    "GreedyBalance <= (2 - 1/m) OPT for every balanced schedule";
  let st = Random.State.make [| 707 |] in
  let rows =
    List.map
      (fun m ->
        let trials = if m = 2 then 120 else 60 in
        let worst = ref 1.0 and sum = ref 0.0 in
        for _ = 1 to trials do
          let instance =
            Crs_generators.Random_gen.instance
              ~spec:
                { Crs_generators.Random_gen.default_spec with m; jobs_min = 1; jobs_max = 3 }
              st
          in
          let gb = Crs_algorithms.Greedy_balance.makespan instance in
          let opt =
            if m = 2 then Crs_algorithms.Opt_two.makespan instance
            else Crs_algorithms.Brute_force.makespan instance
          in
          let r = float_of_int gb /. float_of_int opt in
          if r > !worst then worst := r;
          sum := !sum +. r
        done;
        [
          string_of_int m;
          string_of_int trials;
          Printf.sprintf "%.3f" (!sum /. float_of_int trials);
          Printf.sprintf "%.3f" !worst;
          Printf.sprintf "%.3f" (2.0 -. (1.0 /. float_of_int m));
        ])
      [ 2; 3; 4 ]
  in
  print_string
    (T.render ~header:[ "m"; "trials"; "mean ratio"; "worst ratio"; "bound 2-1/m" ] rows)

(* ---------- L56: component lower bounds ---------- *)

let exp_l56 () =
  banner "l56" "Lemma 5 / Lemma 6 lower bounds"
    "OPT >= sum(#k - 1) and OPT >= n >= sum |Ck|/qk + |CN|/m on balanced schedules";
  let st = Random.State.make [| 56 |] in
  let trials = 100 in
  let ok = ref 0 in
  let tight5 = ref 0 and tight6 = ref 0 and tight_any = ref 0 in
  for _ = 1 to trials do
    let instance =
      Crs_generators.Random_gen.instance
        ~spec:{ Crs_generators.Random_gen.default_spec with m = 3; jobs_max = 3 }
        st
    in
    let opt = Crs_algorithms.Brute_force.makespan instance in
    let trace =
      Execution.run_exn instance (Crs_algorithms.Greedy_balance.schedule instance)
    in
    let g = Crs_hypergraph.Sched_graph.of_trace trace in
    let l5 = Crs_hypergraph.Bounds.lemma5 g in
    let l6 = Crs_hypergraph.Bounds.lemma6_int g in
    let comb = Crs_hypergraph.Bounds.combined g instance in
    if l5 <= opt && l6 <= opt then incr ok;
    if l5 = opt then incr tight5;
    if l6 = opt then incr tight6;
    if comb = opt then incr tight_any
  done;
  Printf.printf
    "%d instances: bounds sound on %d; Lemma5 tight %d, Lemma6 tight %d, best-of-all \
     tight %d\n"
    trials !ok !tight5 !tight6 !tight_any

(* ---------- MC: the many-core scenario ---------- *)

let exp_mc () =
  banner "mc" "many-core bus simulation (Section 1 scenario)"
    "bandwidth distribution decides makespan; greedy balancing wins";
  let st = Random.State.make [| 1 |] in
  List.iter
    (fun (wname, tasks) ->
      Printf.printf "-- workload: %s --\n" wname;
      let rows =
        List.map
          (fun (p : Crs_manycore.Policy.t) ->
            let r = Crs_manycore.Engine.run p tasks in
            p.name :: Crs_manycore.Stats.to_row (Crs_manycore.Stats.of_result tasks r))
          Crs_manycore.Policy.all
      in
      print_string
        (T.render ~header:("policy" :: Crs_manycore.Stats.header) rows);
      let instance = Crs_manycore.Workload.to_crsharing ~granularity:20 tasks in
      Printf.printf "exact-model lower bound (any policy): %d ticks\n\n"
        (Lower_bounds.combined instance))
    [
      ("io-burst (12 cores)", Crs_manycore.Workload.io_burst ~cores:12 ~phases:4 ~io_intensity:0.8 st);
      ("mixed-vm (9 cores)", Crs_manycore.Workload.mixed_vm ~cores:9 st);
      ("streaming (8 cores)", Crs_manycore.Workload.streaming ~cores:8 ~length:8.0 st);
    ]

(* ---------- EXT: extensions ---------- *)

let exp_ext () =
  banner "ext" "extensions (Section 9 outlook)"
    "conjecture: results transfer to arbitrary sizes; continuous time removes the \
     step-boundary cost";
  let st = Random.State.make [| 909 |] in
  let trials = 60 in
  let worst_rr = ref 1.0 in
  for _ = 1 to trials do
    let instance =
      Crs_generators.Random_gen.sized_jobs ~m:3 ~n:3 ~granularity:8 ~max_size:3 st
    in
    let r =
      Q.to_float
        (Crs_extension.General.ratio_vs_lower_bound
           (fun i ->
             Execution.makespan (Execution.run_exn i (Crs_algorithms.Round_robin.schedule i)))
           instance)
    in
    if r > !worst_rr then worst_rr := r
  done;
  Printf.printf
    "sized jobs (%d trials): worst RoundRobin / certified-LB ratio %.3f (conjectured \
     bound 2)\n"
    trials !worst_rr;
  let overhead_pos = ref 0 and overhead_neg = ref 0 in
  let total_overhead = ref 0.0 in
  for _ = 1 to trials do
    let instance =
      Crs_generators.Random_gen.instance
        ~spec:{ Crs_generators.Random_gen.default_spec with m = 3; jobs_max = 4 }
        st
    in
    let o = Q.to_float (Crs_extension.Continuous.discretization_overhead instance) in
    total_overhead := !total_overhead +. o;
    if o > 0.0 then incr overhead_pos else if o < 0.0 then incr overhead_neg
  done;
  Printf.printf
    "continuous vs discrete GreedyBalance (%d trials): mean overhead %.3f steps \
     (positive on %d, negative on %d)\n"
    trials
    (!total_overhead /. float_of_int trials)
    !overhead_pos !overhead_neg

(* ---------- BP: splittable bin packing baseline ---------- *)

let exp_bp () =
  banner "bp" "splittable bin packing with cardinality constraints (Section 2 baseline)"
    "NextFit is an absolute (2 - 1/k)-approximation (Chung et al.; Epstein & van Stee)";
  let module S = Crs_binpack.Splittable in
  let st = Random.State.make [| 111 |] in
  let rows =
    List.map
      (fun k ->
        let trials = 60 in
        let worst = ref 1.0 in
        for _ = 1 to trials do
          let n = 4 + Random.State.int st 12 in
          let sizes =
            Array.init n (fun _ -> Q.of_ints (1 + Random.State.int st 30) 10)
          in
          let t = S.make ~k sizes in
          let nf = S.num_bins (S.next_fit t) in
          let r = float_of_int nf /. float_of_int (max 1 (S.lower_bound t)) in
          if r > !worst then worst := r
        done;
        [
          string_of_int k;
          string_of_int trials;
          Printf.sprintf "%.3f" !worst;
          Printf.sprintf "%.3f" (Q.to_float (S.next_fit_guarantee ~k));
        ])
      [ 2; 3; 4; 6 ]
  in
  print_string
    (T.render ~header:[ "k"; "trials"; "worst NF/LB"; "bound 2-1/k" ] rows);
  (* The interleaved family with certified OPT. *)
  let rows =
    List.map
      (fun n ->
        let t = S.interleave_family ~n in
        let nf = S.num_bins (S.next_fit t) in
        let nfd = S.num_bins (S.next_fit_decreasing t) in
        let opt = S.interleave_family_opt ~n in
        [
          string_of_int n;
          string_of_int nf;
          string_of_int nfd;
          string_of_int opt;
          Printf.sprintf "%.4f" (float_of_int nf /. float_of_int opt);
        ])
      [ 6; 12; 24; 48; 96 ]
  in
  Printf.printf "\ninterleaved family (k=2, certified OPT = n):\n";
  print_string (T.render ~header:[ "n"; "NF"; "NF-decreasing"; "OPT"; "NF/OPT" ] rows);
  (* The relaxation as a CRSharing bound. *)
  let st = Random.State.make [| 112 |] in
  let trials = 60 in
  let tight = ref 0 in
  for _ = 1 to trials do
    let instance =
      Crs_generators.Random_gen.instance
        ~spec:{ Crs_generators.Random_gen.default_spec with m = 3; jobs_max = 3 }
        st
    in
    let opt = Crs_algorithms.Brute_force.makespan instance in
    if S.crsharing_relaxation_bound instance = opt then incr tight
  done;
  Printf.printf
    "\nCRSharing relaxation: bound equals the true optimum on %d/%d random instances\n"
    !tight trials

(* ---------- DC: discrete-continuous baseline ---------- *)

let exp_dc () =
  banner "dc" "discrete-continuous scheduling with power rates (Section 2 baseline)"
    "convex f: one job at a time optimal; concave f: parallel optimal (Jozefowska & \
     Weglarz)";
  let module D = Crs_discont.Discont in
  let workloads = [| 4.0; 2.0; 1.0; 1.0 |] in
  let rows =
    List.map
      (fun alpha ->
        let t = D.make ~m:4 ~alpha workloads in
        let seq = D.sequential_makespan t in
        let par = D.parallel_makespan t in
        let winner =
          if Float.abs (seq -. par) < 1e-9 then "tie"
          else if seq < par then "sequential"
          else "parallel"
        in
        [
          Printf.sprintf "%.2f" alpha;
          Printf.sprintf "%.3f" seq;
          Printf.sprintf "%.3f" par;
          winner;
        ])
      [ 0.25; 0.5; 0.75; 1.0; 1.5; 2.0; 3.0 ]
  in
  print_string
    (T.render ~header:[ "alpha"; "sequential"; "parallel"; "winner" ] rows);
  Printf.printf "(crossover at alpha = 1, as the analytical results predict)\n\n";
  (* n > m: the heuristic regime the literature addresses. *)
  let st = Random.State.make [| 113 |] in
  let rows =
    List.map
      (fun alpha ->
        let mean = ref 0.0 in
        let trials = 30 in
        for _ = 1 to trials do
          let n = 6 + Random.State.int st 6 in
          let ws = Array.init n (fun _ -> 0.5 +. Random.State.float st 3.0) in
          let t = D.make ~m:3 ~alpha ws in
          let h = (D.list_heuristic t).D.makespan in
          let seq = D.sequential_makespan t in
          mean := !mean +. (h /. seq)
        done;
        [
          Printf.sprintf "%.2f" alpha;
          Printf.sprintf "%.3f" (!mean /. 30.0);
        ])
      [ 0.25; 0.5; 0.75; 1.0; 1.5 ]
  in
  print_string
    (T.render ~header:[ "alpha"; "heuristic/sequential (m=3, n>m)" ] rows)

(* ---------- FA: price of fixed assignment ---------- *)

let exp_fa () =
  banner "fa" "price of fixed assignment (Section 9 outlook)"
    "dropping the job-to-processor binding turns CRSharing into splittable bin packing";
  let st = Random.State.make [| 114 |] in
  let trials = 80 in
  let zero_gap = ref 0 and sum_gap = ref 0 and max_gap = ref 0 in
  for _ = 1 to trials do
    let instance =
      Crs_generators.Random_gen.instance
        ~spec:{ Crs_generators.Random_gen.default_spec with m = 3; jobs_max = 3 }
        st
    in
    let lb, _ub, fixed =
      Crs_extension.Free_assignment.price_of_fixed_assignment
        ~exact:Crs_algorithms.Brute_force.makespan instance
    in
    let gap = fixed - lb in
    if gap = 0 then incr zero_gap;
    sum_gap := !sum_gap + gap;
    if gap > !max_gap then max_gap := gap
  done;
  Printf.printf
    "%d random instances (m=3): fixed OPT equals the free-assignment lower bound on \
     %d; mean gap %.2f steps, max %d\n"
    trials !zero_gap
    (float_of_int !sum_gap /. float_of_int trials)
    !max_gap;
  (* The family where fixed assignment genuinely hurts: the Theorem 8
     blocks force balancing costs the relaxation does not pay. *)
  List.iter
    (fun (m, blocks) ->
      let instance = A.greedy_balance_family ~m ~blocks () in
      let lb = Crs_extension.Free_assignment.lower_bound instance in
      let ub = Crs_extension.Free_assignment.upper_bound instance in
      let gb = Crs_algorithms.Greedy_balance.makespan instance in
      Printf.printf
        "Theorem-8 family m=%d blocks=%d: free in [%d, %d], fixed GreedyBalance %d\n" m
        blocks lb ub gb)
    [ (3, 5); (4, 5) ]

(* ---------- MR: multiple shared resources ---------- *)

let exp_mr () =
  banner "mr" "several shared continuous resources (Section 9 extension)"
    "Leontief jobs; complementary demands overlap, contended resources gate";
  let module MR = Crs_extension.Multi_resource in
  let st = Random.State.make [| 115 |] in
  let rows =
    List.concat_map
      (fun d ->
        List.map
          (fun correlated ->
            let trials = 30 in
            let sum_ratio = ref 0.0 in
            for _ = 1 to trials do
              let m = 3 in
              let t =
                MR.create ~d
                  (Array.init m (fun _ ->
                       Array.init
                         (2 + Random.State.int st 2)
                         (fun _ ->
                           let base = Q.of_ints (1 + Random.State.int st 10) 10 in
                           MR.unit_job
                             (Array.init d (fun k ->
                                  if correlated || k = 0 then base
                                  else Q.of_ints (1 + Random.State.int st 10) 10)))))
              in
              let greedy = MR.greedy_balance t in
              sum_ratio :=
                !sum_ratio
                +. (float_of_int greedy.MR.makespan /. float_of_int (max 1 (MR.lower_bound t)))
            done;
            [
              string_of_int d;
              (if correlated then "correlated" else "independent");
              Printf.sprintf "%.3f" (!sum_ratio /. 30.0);
            ])
          [ true; false ])
      [ 1; 2; 3 ]
  in
  print_string
    (T.render ~header:[ "resources d"; "demands"; "mean greedy/LB" ] rows);
  Printf.printf
    "(correlated demands behave like d=1; independent demands leave more parallel \
     slack per resource, and greedy exploits it)\n"

(* ---------- ablation: design choices ---------- *)

let exp_ablation () =
  banner "ablation" "design-choice ablations"
    "tie-breaking in GreedyBalance; PQ vs table DP; domination pruning (see t5/t6)";
  let st = Random.State.make [| 808 |] in
  let variants : (string * Policy.t) list =
    [
      ("paper (larger remaining first)", Crs_algorithms.Greedy_balance.policy);
      ( "smaller remaining first",
        Policy.greedy_fill ~by:(fun s a b ->
            let ja = Policy.jobs_remaining s a and jb = Policy.jobs_remaining s b in
            if ja <> jb then ja > jb
            else begin
              let wa = Policy.remaining_work s a and wb = Policy.remaining_work s b in
              Q.(wa < wb)
            end) );
      ( "index tie-break",
        Policy.greedy_fill ~by:(fun s a b ->
            let ja = Policy.jobs_remaining s a and jb = Policy.jobs_remaining s b in
            if ja <> jb then ja > jb else a < b) );
    ]
  in
  let trials = 80 in
  let instances =
    List.init trials (fun _ ->
        Crs_generators.Random_gen.instance
          ~spec:{ Crs_generators.Random_gen.default_spec with m = 3; jobs_max = 3 }
          st)
  in
  let opts = List.map Crs_algorithms.Brute_force.makespan instances in
  let rows =
    List.map
      (fun (name, policy) ->
        let worst = ref 1.0 and sum = ref 0.0 in
        List.iter2
          (fun instance opt ->
            let ms = Crs_algorithms.Heuristics.makespan_of policy instance in
            let r = float_of_int ms /. float_of_int opt in
            if r > !worst then worst := r;
            sum := !sum +. r)
          instances opts;
        [
          name;
          Printf.sprintf "%.3f" (!sum /. float_of_int trials);
          Printf.sprintf "%.3f" !worst;
        ])
      variants
  in
  print_string (T.render ~header:[ "tie-breaking"; "mean ratio"; "worst ratio" ] rows);
  (* On the Theorem 8 family the tie-breaking is immaterial (the job
     counts drive the balancing), but adversaries for other rules exist;
     the bound 2-1/m holds for ALL of them by Theorem 7. *)
  let fam = A.greedy_balance_family ~m:3 ~blocks:6 () in
  List.iter
    (fun (name, policy) ->
      Printf.printf "Theorem-8 family m=3 blocks=6: %-32s -> %d steps\n" name
        (Crs_algorithms.Heuristics.makespan_of policy fam))
    variants

(* ---------- campaign: parallel batch-evaluation subsystem ---------- *)

let exp_campaign ?(mode = `Run) () =
  banner "campaign" "work-stealing campaign executor (sequential vs parallel)"
    "greedy-vs-opt ratio sweeps (t5/t6 style) fan out across the Chase-Lev \
     work-stealing executor; payloads and trace signatures are byte-identical \
     at any pool size";
  let module C = Crs_campaign in
  let seed_hi, reps = match mode with `Run -> (60, 9) | `Smoke -> (6, 1) in
  let spec =
    {
      C.Spec.family = C.Spec.Uniform;
      m = 3;
      n = 4;
      granularity = 10;
      seed_lo = 1;
      seed_hi;
      algorithms =
        [
          Crs_algorithms.Registry.Names.greedy_balance;
          Crs_algorithms.Registry.Names.round_robin;
        ];
      baseline = C.Spec.Exact;
      fuel = Some 5_000_000;
    }
  in
  let items = Array.length (C.Spec.expand spec) in
  let hardware_cores = Domain.recommended_domain_count () in
  let domains = 4 in
  let run_seq () = C.Runner.run ~domains:1 spec in
  let run_par () = C.Runner.run ~domains spec in
  (* Every run's result is kept, so the payloads of each timed pair are
     compared after the timing, outside it. *)
  let seq_runs = ref [] and par_runs = ref [] in
  let keep runs run () = runs := run () :: !runs in
  let p = H.paired ~warmups:1 ~reps (keep seq_runs run_seq) (keep par_runs run_par) in
  (* The harness's ratio is parallel over sequential time; with an odd
     rep count its reciprocal is exactly the median per-rep speedup. *)
  let speedup = 1.0 /. p.H.ratio in
  let seq_best = p.H.best_a and par_best = p.H.best_b in
  let payloads_identical =
    List.for_all2
      (fun s q -> String.equal (C.Report.payload_digest s) (C.Report.payload_digest q))
      !seq_runs !par_runs
  in
  let rate t = float_of_int items /. Float.max t 1e-9 in
  print_string
    (T.render
       ~header:[ "mode"; "items"; "best wall s"; "items/s" ]
       [
         [ "sequential"; string_of_int items; Printf.sprintf "%.3f" seq_best;
           Printf.sprintf "%.1f" (rate seq_best) ];
         [ Printf.sprintf "executor (%d domains)" domains; string_of_int items;
           Printf.sprintf "%.3f" par_best; Printf.sprintf "%.1f" (rate par_best) ];
       ]);
  (* Executor behavior under this workload, via the crs_obs counters the
     executor records (zero-cost while the benches above ran untraced). *)
  Crs_obs.Metrics.reset ();
  Crs_obs.Metrics.set_enabled true;
  ignore (run_par ());
  Crs_obs.Metrics.set_enabled false;
  let mval name = Crs_obs.Metrics.counter_value (Crs_obs.Metrics.counter name) in
  let exec_pushes = mval "exec.push" in
  let exec_steals = mval "exec.steal" in
  let exec_parks = mval "exec.park" in
  Crs_obs.Metrics.reset ();
  (* Trace signatures must be byte-identical at any pool size: the spans
     are keyed by item id, not by which worker stole what. A smaller
     sweep keeps the traced runs cheap. *)
  let sig_spec = { spec with C.Spec.seed_hi = 12 } in
  let signature_at domains =
    Crs_obs.Trace.reset ();
    Crs_obs.Trace.set_enabled true;
    ignore (C.Runner.run ~domains sig_spec);
    let s = Crs_obs.Trace.signature () in
    Crs_obs.Trace.set_enabled false;
    Crs_obs.Trace.reset ();
    s
  in
  let sig_1 = signature_at 1 in
  let trace_signature_identical =
    String.equal sig_1 (signature_at 2) && String.equal sig_1 (signature_at domains)
  in
  let summary = C.Report.summarize (run_seq ()) in
  (* On a box with fewer cores than domains the parallel runs share
     the cores; the ratio measures executor overhead, not scaling, and
     must not be read as a speedup claim. Such a gate is not judged: it
     records gate_met false beside speedup_meaningful false, never a
     pass. Both the detected core count and the domain count actually
     used are recorded so the flag is auditable. *)
  let speedup_meaningful = hardware_cores >= domains in
  let speedup_gate = 1.8 in
  let gate_met = speedup_meaningful && speedup >= speedup_gate in
  Printf.printf
    "speedup %.2fx median of %d paired reps on %d domains (%d hardware core%s \
     detected)%s\n"
    speedup reps domains hardware_cores
    (if hardware_cores = 1 then "" else "s")
    (if speedup_meaningful then
       Printf.sprintf " — gate >= %.1fx: %s" speedup_gate
         (if gate_met then "met" else "NOT MET")
     else
       " — not judged: fewer cores than domains, ratio reflects executor \
        overhead only");
  Printf.printf "executor: %d pushes, %d steals, %d parks on the counted run\n"
    exec_pushes exec_steals exec_parks;
  Printf.printf "trace signature identical at domains {1,2,%d}: %b\n" domains
    trace_signature_identical;
  Printf.printf "sweep: %d done, %d timeout, mean ratio %s\n" summary.C.Report.completed
    summary.C.Report.timeouts
    (match summary.C.Report.mean_ratio with
    | Some r -> Printf.sprintf "%.4f" r
    | None -> "-");
  (match mode with
  | `Smoke -> Printf.printf "smoke run: timings carry no signal, gate not judged\n"
  | `Run ->
    H.write "BENCH_campaign.json"
      (Printf.sprintf
         "{\"items\":%d,\"domains\":%d,\"domains_used\":%d,\"hardware_cores\":%d,\
          \"reps\":%d,\"sequential_s\":%.6f,\"parallel_s\":%.6f,\
          \"sequential_items_per_s\":%.2f,\"parallel_items_per_s\":%.2f,\
          \"speedup\":%.4f,\"speedup_gate\":%.2f,\"gate_met\":%b,\
          \"speedup_meaningful\":%b,\"payloads_identical\":%b,\
          \"trace_signature_identical\":%b,\"exec_pushes\":%d,\
          \"exec_steals\":%d,\"exec_parks\":%d}\n"
         items domains domains hardware_cores reps seq_best par_best
         (rate seq_best) (rate par_best) speedup speedup_gate gate_met
         speedup_meaningful payloads_identical trace_signature_identical
         exec_pushes exec_steals exec_parks));
  assert payloads_identical;
  assert trace_signature_identical;
  assert (mode = `Smoke || (not speedup_meaningful) || gate_met)

(* ---------- registry: dispatch overhead ---------- *)

let exp_registry ?(mode = `Run) () =
  banner "registry" "solver-registry dispatch overhead"
    "capability-checked registry dispatch costs <= 5% over calling Opt_two directly";
  let solver = R.find_exn R.Names.opt_two in
  let sizes, warmups, reps =
    match mode with `Run -> ([ 50; 100; 200; 400 ], 8, 31) | `Smoke -> ([ 20; 40 ], 1, 2)
  in
  let instances = List.map (fun n -> A.round_robin_family ~n) sizes in
  List.iter
    (fun instance ->
      assert (
        (Crs_algorithms.Opt_two.solve instance).Crs_algorithms.Opt_two.makespan
        = (R.solve solver instance).R.makespan))
    instances;
  (* Both sides do the full solve including witness replay, so the
     measured gap is exactly the registry layer: the find + capability
     check + counters/fuel bookkeeping. One call solves every size, and
     the overhead is the median paired ratio: minima timed block by
     block drift apart between blocks by more than the budget. *)
  let p =
    H.paired ~warmups ~reps
      (fun () -> List.iter (fun i -> ignore (Crs_algorithms.Opt_two.solve i)) instances)
      (fun () -> List.iter (fun i -> ignore (R.solve solver i)) instances)
  in
  let overhead_pct = (p.H.ratio -. 1.0) *. 100. in
  let budget_pct = 5.0 in
  Printf.printf
    "Figure-3 n = %s per call: direct %.3f ms, registry %.3f ms (best of %d)\n\
     dispatch overhead %+.2f%% (median of %d paired ratios; budget %.1f%%)\n"
    (String.concat "," (List.map string_of_int sizes))
    (p.H.best_a *. 1000.) (p.H.best_b *. 1000.) reps overhead_pct reps budget_pct;
  match mode with
  | `Smoke -> Printf.printf "smoke run: timings carry no signal, budget not judged\n"
  | `Run ->
    H.write "BENCH_registry.json"
      (Printf.sprintf
         "{\"sizes\":[%s],\"reps\":%d,\"direct_s\":%.6f,\"registry_s\":%.6f,\
          \"overhead_pct\":%.4f,\"budget_pct\":%.1f,\"within_budget\":%b}\n"
         (String.concat "," (List.map string_of_int sizes))
         reps p.H.best_a p.H.best_b overhead_pct budget_pct
         (overhead_pct <= budget_pct));
    assert (overhead_pct <= budget_pct)

(* ---------- fuzz: certifier throughput + gate ---------- *)

let exp_fuzz ?(mode = `Run) () =
  banner "fuzz" "independent schedule-certifier throughput"
    "Certify.check re-validates every greedy-balance witness from scratch";
  let spec = { Crs_campaign.Spec.default with m = 4; n = 6; granularity = 12 } in
  let count, rounds = match mode with `Run -> (200, 5) | `Smoke -> (20, 1) in
  let solver = R.find_exn R.Names.greedy_balance in
  let witnesses =
    Array.init count (fun i ->
        let instance = Crs_campaign.Spec.instance spec ~seed:(i + 1) in
        let out = R.solve solver instance in
        match out.R.schedule with
        | Some s -> (instance, s, out.R.makespan)
        | None -> failwith "greedy-balance returned no witness")
  in
  let certify_all () =
    Array.for_all
      (fun (instance, s, claimed) ->
        match Crs_fuzz.Certify.check instance s ~claimed with
        | Ok _ -> true
        | Error _ -> false)
      witnesses
  in
  ignore (certify_all ()) (* warm-up *);
  let all_certified = ref true in
  let certify_s =
    H.seconds (fun () ->
        for _ = 1 to rounds do
          all_certified := certify_all () && !all_certified
        done)
  in
  let certified = count * rounds in
  let certified_per_s = float_of_int certified /. certify_s in
  Printf.printf
    "certified %d witnesses (%d instances x %d rounds) in %.3fs: %.0f/s, all_certified=%b\n"
    certified count rounds certify_s certified_per_s !all_certified;
  (match mode with
  | `Smoke -> Printf.printf "smoke run: no file written\n"
  | `Run ->
    H.write "BENCH_fuzz.json"
      (Printf.sprintf
         "{\"instances\":%d,\"rounds\":%d,\"certify_s\":%.6f,\
          \"certified_per_s\":%.1f,\"all_certified\":%b}\n"
         count rounds certify_s certified_per_s !all_certified));
  assert !all_certified

(* ---------- num: number-layer throughput + gate ---------- *)

let num_baseline_path = "data/num_baseline.json"

let exp_num ?(mode = `Run) () =
  banner "num" "exact-rational number layer (two-tier small/bigint fast path)"
    "no measured claim; gate: >= 2x end-to-end Opt_two on the Figure-3 family \
     vs the pre-change baseline, exactness pinned by a differential suite";
  match mode with
  | `Check ->
    let outcome, dt = H.time (fun () -> Crs_num.Check.run ~ops:10_000 ~seed:2024 ()) in
    Printf.printf "differential check: %s in %.3fs (budget 1s)\n"
      (Crs_num.Check.describe outcome) dt;
    if not (Crs_num.Check.ok outcome) || dt >= 1.0 then exit 1
  | `Run ->
    (* The baseline is read before anything is measured, so a run from
       the wrong directory fails at once instead of after the timing. *)
    let module J = Crs_util.Stable_json in
    let baseline =
      match In_channel.with_open_text num_baseline_path In_channel.input_all with
      | exception Sys_error msg ->
        Printf.eprintf
          "bench num: cannot read the baseline (%s); run it from the repository \
           root, where %s resolves\n"
          msg num_baseline_path;
        exit 1
      | text -> (
        match J.parse text with
        | Ok b -> b
        | Error e -> failwith (num_baseline_path ^ ": " ^ e))
    in
    let field key =
      match J.member key baseline with
      | Some (J.Float v) -> v
      | Some (J.Int v) -> float_of_int v
      | _ -> failwith (Printf.sprintf "%s: missing %s" num_baseline_path key)
    in
    let b_opt_two = field "opt_two_s" and b_brute = field "brute_s" in
    (* The per-op loops run on paper-style operands: requirement-sized
       fractions with denominators <= 12, i.e. the small tier once the
       two-tier representation lands. *)
    let pool = Array.init 1024 (fun i -> Q.of_ints ((i mod 23) - 11) ((i mod 12) + 1)) in
    let per_op name iters f =
      let s =
        H.seconds (fun () ->
            for k = 0 to iters - 1 do
              ignore
                (Sys.opaque_identity (f pool.(k land 1023) pool.((k * 7 + 3) land 1023)))
            done)
      in
      (name, s /. float_of_int iters *. 1e9)
    in
    let ops =
      [
        per_op "add" 1_000_000 Q.add;
        per_op "mul" 1_000_000 Q.mul;
        per_op "compare" 1_000_000 (fun a b -> Q.of_int (Q.compare a b));
        ( "sum500",
          H.seconds (fun () ->
              for _ = 1 to 20 do
                ignore
                  (Sys.opaque_identity
                     (Q.sum (List.init 500 (fun i -> Q.of_ints 1 (i + 1)))))
              done)
          /. 20. *. 1e9 );
      ]
    in
    let opt_two_n = 1200 in
    let fig3_big = A.round_robin_family ~n:opt_two_n in
    ignore (Crs_algorithms.Opt_two.makespan fig3_big) (* warm-up *);
    let opt_two_s =
      H.best_of ~reps:3 (fun () -> Crs_algorithms.Opt_two.makespan fig3_big)
    in
    let brute_n = 800 in
    let fig3_small = A.round_robin_family ~n:brute_n in
    let brute_s =
      H.best_of ~reps:3 (fun () ->
          Crs_algorithms.Brute_force.makespan ~node_limit:20_000_000 fig3_small)
    in
    print_string
      (T.render
         ~header:[ "operation"; "ns/op (small operands)" ]
         (List.map (fun (name, ns) -> [ name; Printf.sprintf "%.1f" ns ]) ops));
    Printf.printf "end-to-end: opt_two fig3 n=%d %.3fs | brute_force fig3 n=%d %.3fs\n"
      opt_two_n opt_two_s brute_n brute_s;
    let outcome = Crs_num.Check.run ~ops:10_000 ~seed:2024 () in
    Printf.printf "differential check: %s\n" (Crs_num.Check.describe outcome);
    let opt_two_speedup = b_opt_two /. Float.max opt_two_s 1e-9 in
    let brute_speedup = b_brute /. Float.max brute_s 1e-9 in
    let gate = 2.0 in
    let gate_met = opt_two_speedup >= gate in
    let op_line (name, ns) =
      let base = field (name ^ "_ns") in
      Printf.sprintf
        "\"%s\":{\"now_ns\":%.2f,\"baseline_ns\":%.2f,\"speedup\":%.2f}" name ns
        base (base /. Float.max ns 1e-9)
    in
    H.write "BENCH_num.json"
      (Printf.sprintf
         "{\"ops\":{%s},\"opt_two_n\":%.0f,\"opt_two_s\":%.6f,\
          \"opt_two_baseline_s\":%.6f,\"opt_two_speedup\":%.4f,\"brute_n\":%.0f,\
          \"brute_s\":%.6f,\"brute_baseline_s\":%.6f,\"brute_speedup\":%.4f,\
          \"differential_ops\":%d,\"differential_ok\":%b,\"gate\":%.1f,\
          \"gate_met\":%b}\n"
         (String.concat "," (List.map op_line ops))
         (field "opt_two_n") opt_two_s b_opt_two opt_two_speedup (field "brute_n")
         brute_s b_brute brute_speedup outcome.Crs_num.Check.ops
         (Crs_num.Check.ok outcome) gate gate_met);
    Printf.printf
      "speedup vs pre-change baseline: opt_two %.2fx, brute_force %.2fx (gate \
       %.1fx on opt_two: %s)\n"
      opt_two_speedup brute_speedup gate
      (if gate_met then "met" else "NOT MET");
    assert (Crs_num.Check.ok outcome);
    assert gate_met

(* ---------- obs: tracing-overhead gate ---------- *)

(* The gate compares Crs_algorithms.Opt_two (profiling hooks compiled
   in, tracing/metrics disabled) against Crs_unhooked.Opt_two, the same
   source file compiled beside a no-op Crs_obs (bench/unhooked), so the
   two differ only by the hooks. Both run in the SAME process as paired
   reps, so machine-speed drift — which moves wall AND CPU-time minima
   several percent between processes on shared hardware, far above the
   2% bound being checked — hits both sides identically and cancels out
   of the ratio. Per-rep CPU time keeps scheduler noise out of the
   minima. *)
let exp_obs ?(mode = `Run) () =
  banner "obs" "observability layer (span tracer + metrics registry)"
    "gate: <= 2% overhead on Opt_two/Figure-3 with tracing disabled, vs the \
     same kernel built against a no-op Crs_obs (bench/unhooked)";
  let opt_two_n, reps, warmups =
    match mode with
    (* n = 2400 was picked when a solve took ~0.15 s, the scale the 2%
       budget was calibrated against. On three rolling diagonals it
       takes ~30 ms (2-vCPU VM), where run-to-run jitter is about as
       wide as the budget. *)
    | `Run -> (2400, 30, 8)
    (* Smoke: the machinery end to end at a size where timings carry
       no signal — no file written, no gate judged. *)
    | `Smoke -> (80, 4, 1)
  in
  let fig3 = A.round_robin_family ~n:opt_two_n in
  let hooked () = Crs_algorithms.Opt_two.makespan fig3 in
  let unhooked () = Crs_unhooked.Opt_two.makespan fig3 in
  Crs_obs.Trace.set_enabled false;
  Crs_obs.Metrics.set_enabled false;
  let disabled = H.paired ~clock:H.Cpu ~warmups ~reps unhooked hooked in
  (* The unhooked copy calls neither Trace nor Metrics, so leaving both
     on for its half of each pair changes nothing it does. *)
  Crs_obs.Trace.set_enabled true;
  Crs_obs.Metrics.set_enabled true;
  let enabled = H.paired ~clock:H.Cpu ~warmups:0 ~reps unhooked hooked in
  Crs_obs.Trace.reset ();
  ignore (hooked ());
  let spans = List.length (Crs_obs.Trace.spans ()) in
  Crs_obs.Trace.set_enabled false;
  Crs_obs.Metrics.set_enabled false;
  Crs_obs.Trace.reset ();
  let overhead = disabled.H.ratio -. 1.0 in
  let enabled_overhead = enabled.H.ratio -. 1.0 in
  let gate = 0.02 in
  let gate_met = overhead <= gate in
  Printf.printf
    "opt_two fig3 n=%d: unhooked %.3fs, disabled %.3fs, enabled %.3fs (%d \
     spans/solve)\n"
    opt_two_n disabled.H.best_a disabled.H.best_b enabled.H.best_b spans;
  match mode with
  | `Smoke -> Printf.printf "smoke run: timings carry no signal, gate not judged\n"
  | `Run ->
    H.write "BENCH_obs.json"
      (Printf.sprintf
         "{\"opt_two_n\":%d,\"baseline_s\":%.6f,\"disabled_s\":%.6f,\
          \"disabled_overhead\":%.4f,\"enabled_s\":%.6f,\
          \"enabled_overhead\":%.4f,\"spans_per_solve\":%d,\"gate\":%.2f,\
          \"gate_met\":%b}\n"
         opt_two_n disabled.H.best_a disabled.H.best_b overhead enabled.H.best_b
         enabled_overhead spans gate gate_met);
    Printf.printf
      "disabled overhead vs unhooked baseline: %+.2f%% (gate <= %.0f%%: %s); \
       enabled: %+.2f%%\n"
      (overhead *. 100.) (gate *. 100.)
      (if gate_met then "met" else "NOT MET")
      (enabled_overhead *. 100.);
    assert gate_met

(* ---------- dp: flat-state DP kernels vs frozen boxed baselines ---------- *)

let exp_dp ?(mode = `Run) () =
  banner "dp" "flat-state DP kernels (Opt_two / Opt_config)"
    "gate: >= 2x end-to-end on the Figure-3 family for BOTH kernels vs the \
     frozen pre-rewrite boxed kernels vendored into this binary \
     (bench/legacy); results byte-compared first, so the speedup is over \
     identical answers";
  let module L2 = Crs_legacy.Legacy_opt_two in
  let module LC = Crs_legacy.Legacy_opt_config in
  let two_n, cfg_n, cfg_iters, reps =
    match mode with `Run -> (1200, 400, 20, 9) | `Smoke -> (60, 40, 2, 3)
  in
  let fig3_two = A.round_robin_family ~n:two_n in
  let fig3_cfg = A.round_robin_family ~n:cfg_n in
  (* Parity before speed: the ratio is only meaningful over identical
     answers. Opt_two must agree byte-for-byte including counters;
     Opt_config must agree on makespan, generated count and layer
     profile (survivor order is canonical in the flat kernel where the
     legacy one inherited hashtable iteration order, so the witness
     schedule may differ — both must certify). *)
  let s_new = Crs_algorithms.Opt_two.solve fig3_two in
  let s_old = L2.solve fig3_two in
  assert (s_new.Crs_algorithms.Opt_two.makespan = s_old.L2.makespan);
  assert (Schedule.equal s_new.schedule s_old.schedule);
  assert (
    s_new.counters.Crs_algorithms.Opt_two.cells_expanded
    = s_old.L2.counters.L2.cells_expanded);
  assert (
    s_new.counters.Crs_algorithms.Opt_two.relaxations
    = s_old.L2.counters.L2.relaxations);
  let c_new = Crs_algorithms.Opt_config.solve fig3_cfg in
  let c_old = LC.solve fig3_cfg in
  assert (c_new.Crs_algorithms.Opt_config.makespan = c_old.LC.makespan);
  assert (
    c_new.stats.Crs_algorithms.Opt_config.generated = c_old.LC.stats.LC.generated);
  assert (c_new.stats.Crs_algorithms.Opt_config.layers = c_old.LC.stats.LC.layers);
  (match
     Crs_fuzz.Certify.check fig3_cfg c_new.schedule
       ~claimed:c_new.Crs_algorithms.Opt_config.makespan
   with
  | Ok _ -> ()
  | Error msg -> failwith msg);
  (match
     Crs_fuzz.Certify.check fig3_cfg c_old.LC.schedule ~claimed:c_old.LC.makespan
   with
  | Ok _ -> ()
  | Error msg -> failwith msg);
  Printf.printf
    "parity: opt_two schedules byte-identical, counters (%d cells, %d \
     relaxations) equal; opt_config generated %d and %d layers equal, both \
     witnesses certified\n"
    s_new.counters.Crs_algorithms.Opt_two.cells_expanded
    s_new.counters.Crs_algorithms.Opt_two.relaxations
    c_new.stats.Crs_algorithms.Opt_config.generated
    (List.length c_new.stats.Crs_algorithms.Opt_config.layers);
  (* Allocation beside time: Opt_config minor words per solve, on the
     Figure-3 instance and averaged over seeds 1-50 of perfbench's
     campaign-sweep family (uniform, m = 3, n = 6, granularity 10).
     Tracing and metrics are off here, so the counts repeat exactly. *)
  let sweep_seeds = match mode with `Run -> 50 | `Smoke -> 5 in
  let sweep =
    List.init sweep_seeds (fun k ->
        Crs_campaign.Spec.instance
          { Crs_campaign.Spec.default with m = 3; n = 6; granularity = 10 }
          ~seed:(k + 1))
  in
  let mean_words solve instances =
    List.fold_left (fun w i -> w +. H.minor_words (fun () -> solve i)) 0.0 instances
    /. float_of_int (List.length instances)
  in
  let flat_solve i = Crs_algorithms.Opt_config.solve i
  and legacy_solve i = LC.solve i in
  let fig3_words_flat = mean_words flat_solve [ fig3_cfg ]
  and fig3_words_legacy = mean_words legacy_solve [ fig3_cfg ]
  and sweep_words_flat = mean_words flat_solve sweep
  and sweep_words_legacy = mean_words legacy_solve sweep in
  Printf.printf
    "opt_config minor words per solve: fig3 n=%d flat %.0f legacy %.0f; \
     uniform m=3 n=6 seeds 1-%d flat %.0f legacy %.0f\n"
    cfg_n fig3_words_flat fig3_words_legacy sweep_seeds sweep_words_flat
    sweep_words_legacy;
  (* Opt_two's words per solve, on the Figure-3 instance and averaged
     over seeds 1-50 of perfbench exact-cold's m = 2 family (60-120 jobs
     per processor, granularity 20). Both kernels allocate their large
     arrays straight into the major heap, so these count those words
     too, not only minor ones. *)
  let cold_spec =
    { Crs_generators.Random_gen.m = 2; jobs_min = 60; jobs_max = 120; granularity = 20;
      allow_zero = false }
  in
  let cold =
    List.init sweep_seeds (fun k ->
        Crs_generators.Random_gen.instance ~spec:cold_spec
          (Random.State.make [| k + 1 |]))
  in
  let mean_all_words solve instances =
    List.fold_left (fun w i -> w +. H.words (fun () -> solve i)) 0.0 instances
    /. float_of_int (List.length instances)
  in
  let two_flat i = Crs_algorithms.Opt_two.solve i and two_legacy i = L2.solve i in
  let two_fig3_words_flat = mean_all_words two_flat [ fig3_two ]
  and two_fig3_words_legacy = mean_all_words two_legacy [ fig3_two ]
  and two_cold_words_flat = mean_all_words two_flat cold
  and two_cold_words_legacy = mean_all_words two_legacy cold in
  Printf.printf
    "opt_two words per solve (minor + direct major): fig3 n=%d flat %.0f \
     legacy %.0f; exact-cold m=2 seeds 1-%d flat %.0f legacy %.0f\n"
    two_n two_fig3_words_flat two_fig3_words_legacy sweep_seeds
    two_cold_words_flat two_cold_words_legacy;
  (* Paired reps, flat first on even reps; the speedup is the median
     legacy/flat ratio. *)
  let two =
    H.paired ~warmups:1 ~reps
      (fun () -> Crs_algorithms.Opt_two.solve fig3_two)
      (fun () -> L2.solve fig3_two)
  in
  let cfg =
    H.paired ~warmups:1 ~reps
      (fun () ->
        for _ = 1 to cfg_iters do
          ignore (Sys.opaque_identity (Crs_algorithms.Opt_config.solve fig3_cfg))
        done)
      (fun () ->
        for _ = 1 to cfg_iters do
          ignore (Sys.opaque_identity (LC.solve fig3_cfg))
        done)
  in
  List.iter
    (fun (name, (p : H.paired)) ->
      Printf.printf "%-36s flat %.3fs legacy %.3fs -> %.2fx (median of %d)\n" name
        p.best_a p.best_b p.ratio reps)
    [
      (Printf.sprintf "opt_two fig3 n=%d (full solve)" two_n, two);
      (Printf.sprintf "opt_config fig3 n=%d x%d (full solve)" cfg_n cfg_iters, cfg);
    ];
  match mode with
  | `Smoke -> Printf.printf "smoke run: timings carry no signal, gate not judged\n"
  | `Run ->
    let gate = 2.0 in
    let gate_met = two.H.ratio >= gate && cfg.H.ratio >= gate in
    H.write "BENCH_dp.json"
      (Printf.sprintf
         "{\"opt_two_n\":%d,\"opt_two_flat_s\":%.6f,\"opt_two_legacy_s\":%.6f,\
          \"opt_two_speedup\":%.4f,\"opt_config_n\":%d,\"opt_config_iters\":%d,\
          \"opt_config_flat_s\":%.6f,\"opt_config_legacy_s\":%.6f,\
          \"opt_config_speedup\":%.4f,\"reps\":%d,\"cells_expanded\":%d,\
          \"relaxations\":%d,\"generated\":%d,\
          \"opt_config_fig3_words_flat\":%.0f,\
          \"opt_config_fig3_words_legacy\":%.0f,\"opt_config_sweep_seeds\":%d,\
          \"opt_config_sweep_words_flat\":%.0f,\
          \"opt_config_sweep_words_legacy\":%.0f,\
          \"opt_two_fig3_words_flat\":%.0f,\"opt_two_fig3_words_legacy\":%.0f,\
          \"opt_two_cold_seeds\":%d,\"opt_two_cold_words_flat\":%.0f,\
          \"opt_two_cold_words_legacy\":%.0f,\"parity\":true,\"gate\":%.1f,\
          \"gate_met\":%b}\n"
         two_n two.H.best_a two.H.best_b two.H.ratio cfg_n cfg_iters cfg.H.best_a
         cfg.H.best_b cfg.H.ratio reps
         s_new.counters.Crs_algorithms.Opt_two.cells_expanded
         s_new.counters.Crs_algorithms.Opt_two.relaxations
         c_new.stats.Crs_algorithms.Opt_config.generated fig3_words_flat
         fig3_words_legacy sweep_seeds sweep_words_flat sweep_words_legacy
         two_fig3_words_flat two_fig3_words_legacy sweep_seeds two_cold_words_flat
         two_cold_words_legacy gate gate_met);
    Printf.printf
      "speedup vs frozen boxed kernels: opt_two %.2fx, opt_config %.2fx (gate \
       >= %.1fx on BOTH: %s)\n"
      two.H.ratio cfg.H.ratio gate
      (if gate_met then "met" else "NOT MET");
    assert gate_met

(* ---------- micro: runtime micro-benchmarks ---------- *)

(* ns per call, each case timed for about [budget] seconds. *)
let micro ?(budget = 0.4) () =
  let st = Random.State.make [| 4242 |] in
  let two n = Helpers_bench.random_two_proc ~n st 0 in
  let inst50 = two 50 and inst200 = two 200 in
  let st2 = Random.State.make [| 4243 |] in
  let inst_m3 = Crs_generators.Random_gen.equal_rows ~m:3 ~n:3 ~granularity:10 st2 in
  let big_family = A.greedy_balance_family ~m:4 ~blocks:25 () in
  let rr_family = A.round_robin_family ~n:200 in
  let cases =
    [
      (* T5: the O(n^2) DP and its PQ variant. *)
      ("opt_two n=50", fun () -> ignore (Crs_algorithms.Opt_two.makespan inst50));
      ("opt_two n=200", fun () -> ignore (Crs_algorithms.Opt_two.makespan inst200));
      ("opt_two_pq n=200", fun () -> ignore (Crs_algorithms.Opt_two_pq.makespan inst200));
      (* T6: configuration enumeration at fixed m. *)
      ("opt_config m=3 n=3", fun () -> ignore (Crs_algorithms.Opt_config.makespan inst_m3));
      (* T7/T8: the linear-time approximation on a large family instance. *)
      ( "greedy_balance m=4 100 jobs/proc",
        fun () -> ignore (Crs_algorithms.Greedy_balance.makespan big_family) );
      (* T3: round robin on the Figure 3 family. *)
      ("round_robin n=200", fun () -> ignore (Crs_algorithms.Round_robin.makespan rr_family));
      (* Substrate: exact arithmetic throughput (harmonic sums grow the
         denominators into genuine multi-limb territory). *)
      ( "rational sum 1/1..1/500",
        fun () -> ignore (Q.sum (List.init 500 (fun i -> Q.of_ints 1 (i + 1)))) );
      (* S8: simulator tick loop. *)
      ( "manycore mixed-vm 9 cores",
        fun () ->
          let stw = Random.State.make [| 7 |] in
          let tasks = Crs_manycore.Workload.mixed_vm ~cores:9 stw in
          ignore (Crs_manycore.Engine.run Crs_manycore.Policy.greedy_balance tasks) );
    ]
  in
  Printf.printf "\n=== MICRO: runtime micro-benchmarks ===\n\n";
  List.iter
    (fun (name, f) ->
      Printf.printf "%-36s %12.1f ns/run\n" name (H.per_call ~budget f *. 1e9))
    cases

(* ---------- smoke: tiny-n pass over every harness caller ---------- *)

(* `dune build @bench-smoke` runs this: exercises every gated
   experiment and `micro` end to end at sizes where each takes well
   under a second, writes no files and judges no timing gates
   (correctness asserts — differential checks, kernel parity, payload
   and trace-signature identity, certification — still run). Catches
   bit-rot in the bench harness itself without paying for a full
   calibrated run. *)
let smoke () =
  exp_num ~mode:`Check ();
  exp_obs ~mode:`Smoke ();
  exp_dp ~mode:`Smoke ();
  exp_registry ~mode:`Smoke ();
  exp_campaign ~mode:`Smoke ();
  exp_fuzz ~mode:`Smoke ();
  micro ~budget:0.001 ()

let experiments =
  [
    ("f1", exp_f1); ("f2", exp_f2); ("f3", exp_f3); ("f4", exp_f4); ("f5", exp_f5);
    ("t3", exp_t3); ("t5", exp_t5); ("t6", exp_t6); ("t7", exp_t7);
    ("l56", exp_l56); ("mc", exp_mc); ("ext", exp_ext); ("bp", exp_bp);
    ("dc", exp_dc); ("fa", exp_fa); ("mr", exp_mr); ("ablation", exp_ablation);
    ("campaign", fun () -> exp_campaign ()); ("registry", fun () -> exp_registry ());
    ("fuzz", fun () -> exp_fuzz ()); ("num", fun () -> exp_num ());
    ("obs", fun () -> exp_obs ());
    ("dp", fun () -> exp_dp ());
  ]

let () =
  match Array.to_list Sys.argv with
  | _ :: "micro" :: _ -> micro ()
  | _ :: "smoke" :: _ -> smoke ()
  | _ :: "num" :: "--check" :: _ -> exp_num ~mode:`Check ()
  | _ :: id :: _ -> (
    match List.assoc_opt id experiments with
    | Some f -> f ()
    | None ->
      Printf.eprintf "unknown experiment %s; available: %s micro\n" id
        (String.concat " " (List.map fst experiments));
      exit 1)
  | _ ->
    List.iter (fun (_, f) -> f ()) experiments;
    micro ()
