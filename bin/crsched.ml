(* crsched — command-line front end for the CRSharing library.

   Subcommands: gen, solve, compare, campaign, render, graph, normalize,
   reduce, simulate. Instances are text files (one processor per line,
   jobs as rationals; see Instance.of_string). *)

open Cmdliner
module Q = Crs_num.Rational
module T_render = Crs_render.Table
open Crs_core

let read_instance path =
  match if path = "-" then Instance.of_string (In_channel.input_all stdin) else Instance.load path with
  | Ok i -> i
  | Error msg ->
    Printf.eprintf "error: cannot read instance %s: %s\n" path msg;
    exit 1

let instance_arg =
  let doc = "Instance file (one processor per line; '-' for stdin)." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"INSTANCE" ~doc)

(* All algorithm names and dispatch come from the registry, so the CLI,
   the campaign runner and the benches agree on names and semantics. *)
module Registry = Crs_algorithms.Registry

(* Schedule-producing subcommands (solve, render, graph, normalize,
   export) accept any solver that returns a witness schedule. *)
let witnessed_solvers = List.filter (fun s -> s.Registry.witness) Registry.all

let algo_conv = Arg.enum (List.map (fun s -> (s.Registry.name, s)) witnessed_solvers)

let algo_arg =
  let doc =
    "Algorithm: "
    ^ String.concat ", " (List.map (fun s -> s.Registry.name) witnessed_solvers)
    ^ " (see `crsched algorithms')."
  in
  Arg.(
    value
    & opt algo_conv (Registry.find_exn Registry.Names.greedy_balance)
    & info [ "a"; "algorithm" ] ~docv:"ALGO" ~doc)

let fail msg =
  Printf.eprintf "error: %s\n" msg;
  exit 1

(* Dispatch through the registry with the capability check surfaced as a
   clean CLI error instead of an exception trace. *)
let solve_or_exit solver instance =
  match Registry.run solver instance with
  | Ok out -> out
  | Error (Registry.Inapplicable reason) -> fail reason
  | Error (Registry.Timeout _) -> assert false (* no budget without ~fuel *)

let schedule_of solver instance =
  match (solve_or_exit solver instance).Registry.schedule with
  | Some schedule -> schedule
  | None -> assert false (* witnessed solvers only *)

(* The hypergraph bounds (Section 3.2) and Lemma 1's transformation are
   defined for unit-size jobs only; commands built on them say so. *)
let require_unit_size command instance =
  if not (Instance.is_unit_size instance) then
    fail (command ^ " requires unit-size jobs")

(* ---- algorithms ---- *)

let algorithm_rows () =
  List.map
    (fun (s : Registry.solver) ->
      let r = s.requires in
      let m_range =
        match r.max_m with
        | Some mx when mx = r.min_m -> string_of_int mx
        | Some mx -> Printf.sprintf "%d-%d" r.min_m mx
        | None -> Printf.sprintf "%d+" r.min_m
      in
      [
        s.name;
        Registry.kind_to_string s.kind;
        m_range;
        (if r.unit_size_only then "unit" else "any");
        (if r.fuel_aware then "yes" else "no");
        (if s.witness then "yes" else "no");
        s.about;
      ])
    Registry.all

let algorithms_header =
  [ "name"; "kind"; "m"; "sizes"; "fuel"; "witness"; "about" ]

let algorithms_cmd =
  let long =
    Arg.(
      value & flag
      & info [ "long" ]
          ~doc:
            "Emit a GitHub-flavoured markdown table instead of the plain \
             one (the README's Algorithms section is generated from this).")
  in
  let run long =
    let rows = algorithm_rows () in
    if long then begin
      let line cells = "| " ^ String.concat " | " cells ^ " |" in
      print_endline (line algorithms_header);
      print_endline (line (List.map (fun _ -> "---") algorithms_header));
      List.iter
        (function
          | name :: rest -> print_endline (line (("`" ^ name ^ "`") :: rest))
          | [] -> ())
        rows
    end
    else
      print_string (T_render.render ~header:algorithms_header rows)
  in
  Cmd.v
    (Cmd.info "algorithms"
       ~doc:"List every registered solver with its capability record."
       ~man:
         [
           `S Manpage.s_description;
           `P
             "One row per solver in the registry: canonical name, kind \
              (exact/approx/heuristic/online), accepted processor counts, \
              accepted job sizes, whether fuel budgets meter it, and whether \
              it produces a witness schedule (only witnessed solvers can be \
              used with solve/render/export). With --long, the same table is \
              emitted as markdown for the README.";
         ])
    Term.(const run $ long)

(* ---- gen ---- *)

let gen_cmd =
  let family =
    let doc =
      "Family: uniform, heavy-tailed, balanced, rr-worst (Fig. 3), \
       gb-worst (Fig. 5), figure1, figure2."
    in
    Arg.(value & opt string "uniform" & info [ "f"; "family" ] ~docv:"FAMILY" ~doc)
  in
  let m = Arg.(value & opt int 3 & info [ "m" ] ~doc:"Number of processors.") in
  let n = Arg.(value & opt int 5 & info [ "n" ] ~doc:"Jobs per processor (or family size parameter).") in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Random seed.") in
  let granularity =
    Arg.(value & opt int 20 & info [ "granularity" ] ~doc:"Requirement grid 1/g.")
  in
  let run family m n seed granularity =
    try
      let st = Random.State.make [| seed |] in
      let spec =
        { Crs_generators.Random_gen.default_spec with m; jobs_min = n; jobs_max = n; granularity }
      in
      let instance =
        match family with
        | "uniform" -> Crs_generators.Random_gen.instance ~spec st
        | "heavy-tailed" -> Crs_generators.Random_gen.heavy_tailed ~spec st
        | "balanced" -> Crs_generators.Random_gen.balanced_load ~spec st
        | "rr-worst" -> Crs_generators.Adversarial.round_robin_family ~n
        | "gb-worst" -> Crs_generators.Adversarial.greedy_balance_family ~m ~blocks:n ()
        | "figure1" -> Crs_generators.Adversarial.figure1
        | "figure2" -> Crs_generators.Adversarial.figure2
        | other ->
          Printf.eprintf "error: unknown family %s\n" other;
          exit 1
      in
      print_string (Instance.to_string instance)
    with Invalid_argument msg -> fail msg
  in
  Cmd.v
    (Cmd.info "gen" ~doc:"Generate a CRSharing instance.")
    Term.(const run $ family $ m $ n $ seed $ granularity)

(* ---- solve ---- *)

let solve_cmd =
  let gantt =
    Arg.(value & flag & info [ "gantt" ] ~doc:"Render the schedule as a Gantt chart.")
  in
  let run path solver gantt =
    let instance = read_instance path in
    let schedule = schedule_of solver instance in
    let trace = Execution.run_exn instance schedule in
    Printf.printf "%s makespan: %d\n" solver.Registry.name (Execution.makespan trace);
    Printf.printf "%s\n" (Crs_render.Gantt.summary trace);
    if gantt then print_string (Crs_render.Gantt.render trace)
  in
  Cmd.v
    (Cmd.info "solve" ~doc:"Run one algorithm on an instance.")
    Term.(const run $ instance_arg $ algo_arg $ gantt)

(* ---- compare ---- *)

let compare_cmd =
  let exact =
    Arg.(value & flag & info [ "exact" ] ~doc:"Also compute the exact optimum (small instances only).")
  in
  let json =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Emit JSONL records (campaign schema) instead of a table.")
  in
  let run path exact json =
    let instance = read_instance path in
    (* Exact solvers join the comparison only under --exact; whatever the
       registry rejects for this instance is skipped (table) or recorded
       as not_applicable (JSONL), never a crash. *)
    let names =
      List.filter
        (fun n ->
          match (Registry.find_exn n).Registry.kind with
          | Registry.Exact -> exact
          | _ -> true)
        Crs_campaign.Runner.default_names
    in
    if json then begin
      let baseline =
        if exact then Crs_campaign.Spec.Exact else Crs_campaign.Spec.Lower_bound
      in
      List.iter
        (fun r -> print_endline (Crs_campaign.Report.to_json r))
        (Crs_campaign.Runner.compare_records ~names ~baseline ~family:"file"
           instance)
    end
    else begin
    require_unit_size "compare" instance;
    let lb = Crs_algorithms.Solver.certified_lower_bound instance in
    let opt = if exact then Some (Crs_algorithms.Solver.optimal_makespan instance) else None in
    let skipped = ref [] in
    let rows =
      List.filter_map
        (fun name ->
          match Registry.run (Registry.find_exn name) instance with
          | Error (Registry.Inapplicable reason) ->
            skipped := (name, reason) :: !skipped;
            None
          | Error (Registry.Timeout _) -> assert false (* no budget without ~fuel *)
          | Ok out ->
            let schedule =
              match out.Registry.schedule with
              | Some s -> s
              | None -> assert false (* default_names are witnessed *)
            in
            let trace = Execution.run_exn instance schedule in
            let ms = Execution.makespan trace in
            let base = match opt with Some o -> o | None -> lb in
            Some
              [
                name;
                string_of_int ms;
                Printf.sprintf "%.3f" (float_of_int ms /. float_of_int (max 1 base));
                Q.to_string (Execution.unused_capacity trace);
              ])
        names
    in
    let denom = if exact then "ratio(opt)" else "ratio(LB)" in
    print_string
      (Crs_render.Table.render
         ~header:[ "algorithm"; "makespan"; denom; "unused" ]
         rows);
    List.iter
      (fun (name, reason) ->
        Printf.printf "skipped %s: %s\n" name reason)
      (List.rev !skipped);
    Printf.printf "certified lower bound: %d\n" lb;
    Option.iter (Printf.printf "exact optimum: %d\n") opt
    end
  in
  Cmd.v
    (Cmd.info "compare" ~doc:"Compare all algorithms on an instance.")
    Term.(const run $ instance_arg $ exact $ json)

(* ---- campaign ---- *)

(* The generator flags of a campaign spec, shared by `campaign`,
   `trace campaign` and `fuzz`. *)
let family_arg =
  Arg.(value & opt string "uniform"
       & info [ "f"; "family" ] ~docv:"FAMILY"
           ~doc:"Generator family: uniform, heavy-tailed, balanced.")

let m_arg = Arg.(value & opt int 3 & info [ "m" ] ~doc:"Number of processors.")
let n_arg = Arg.(value & opt int 3 & info [ "n" ] ~doc:"Jobs per processor.")

let granularity_arg =
  Arg.(value & opt int 10 & info [ "granularity" ] ~doc:"Requirement grid 1/g.")

let family_or_exit family =
  match Crs_campaign.Spec.family_of_string family with
  | Some f -> f
  | None -> fail ("unknown family " ^ family)

(* The spec flags `campaign` and `trace campaign` share; [seeds] is the
   default range and [baseline] a term, `campaign`'s --baseline flag or
   a constant. The term parses family and baseline and validates the
   spec, exiting 1 with one diagnostic line. A command applies it last,
   so cmdliner reports its own conversion errors first. *)
let campaign_spec ~seeds ~baseline =
  let seeds =
    Arg.(value & opt (pair ~sep:'-' int int) seeds
         & info [ "seeds" ] ~docv:"LO-HI"
             ~doc:"Inclusive seed range; one instance per seed.")
  in
  let algos =
    Arg.(value & opt_all string [ Registry.Names.greedy_balance ]
         & info [ "a"; "algorithm" ] ~docv:"ALGO"
             ~doc:"Algorithm to evaluate (repeatable); any registered name \
                   (see `crsched algorithms'). Solvers whose capability \
                   record rejects the family are reported not_applicable.")
  in
  let fuel =
    Arg.(value & opt int 2_000_000
         & info [ "fuel" ]
             ~doc:"Per-solve work budget (solver ticks); 0 disables metering. \
                   Exhausted budgets are recorded as timeout outcomes.")
  in
  let build family m n granularity (seed_lo, seed_hi) algorithms baseline fuel
      =
    let family = family_or_exit family in
    let baseline =
      match Crs_campaign.Spec.baseline_of_string baseline with
      | Some b -> b
      | None ->
        fail (Printf.sprintf "unknown baseline %s (exact | lower-bound)" baseline)
    in
    let spec =
      {
        Crs_campaign.Spec.family;
        m;
        n;
        granularity;
        seed_lo;
        seed_hi;
        algorithms;
        baseline;
        fuel = (if fuel = 0 then None else Some fuel);
      }
    in
    match Crs_campaign.Spec.validate spec with
    | Ok _ -> spec
    | Error msg -> fail ("invalid campaign: " ^ msg)
  in
  Term.(
    const build $ family_arg $ m_arg $ n_arg $ granularity_arg $ seeds $ algos
    $ baseline $ fuel)

let campaign_cmd =
  let baseline =
    Arg.(value & opt string "exact"
         & info [ "baseline" ]
             ~doc:"Denominator of the ratio: exact (fuel-metered optimum) or lower-bound.")
  in
  let domains =
    Arg.(value & opt int 1
         & info [ "domains" ] ~docv:"K"
             ~doc:"Work-stealing executor size; 1 runs sequentially, 0 uses \
                   every recommended hardware core. Results are identical at \
                   any size.")
  in
  let out =
    Arg.(value & opt string "data"
         & info [ "out" ] ~docv:"DIR" ~doc:"Output directory for JSONL + summary.")
  in
  let metrics =
    Arg.(value & flag
         & info [ "metrics" ]
             ~doc:"Collect the crs_obs metrics registry during the run \
                   (outcome counters, per-solver work counters) and write \
                   its snapshot to DIR/campaign-metrics.json.")
  in
  let run domains out metrics spec =
    Printf.printf "campaign: %s\n" (Crs_campaign.Spec.describe spec);
    let domains =
      if domains = 0 then Domain.recommended_domain_count () else max 1 domains
    in
    Printf.printf "items: %d on %d domain%s\n%!"
      (Array.length (Crs_campaign.Spec.expand spec))
      domains
      (if domains > 1 then "s" else "");
    if metrics then Crs_obs.Metrics.set_enabled true;
    let t0 = Crs_obs.Clock.monotonic_ns () in
    let records = Crs_campaign.Runner.run ~domains spec in
    let elapsed =
      Int64.to_float (Int64.sub (Crs_obs.Clock.monotonic_ns ()) t0) /. 1e9
    in
    if metrics then begin
      let snapshot = Crs_obs.Metrics.snapshot () in
      Crs_obs.Metrics.set_enabled false;
      if not (Sys.file_exists out) then Sys.mkdir out 0o755;
      let metrics_path = Filename.concat out "campaign-metrics.json" in
      Out_channel.with_open_text metrics_path (fun oc ->
          Out_channel.output_string oc (snapshot ^ "\n"));
      Printf.printf "metrics: %s\nwrote %s\n" snapshot metrics_path
    end;
    let summary = Crs_campaign.Report.summarize records in
    let jsonl_path = Filename.concat out "campaign.jsonl" in
    let summary_path = Filename.concat out "campaign-summary.json" in
    Crs_campaign.Report.write_jsonl jsonl_path records;
    Crs_campaign.Report.write_summary summary_path summary;
    (* Retain the worst-case instance for replay with solve/compare. *)
    (match summary.Crs_campaign.Report.worst with
    | Some w -> (
      match w.Crs_campaign.Report.seed with
      | Some seed ->
        let worst_path = Filename.concat out "campaign-worst.instance" in
        Instance.save worst_path (Crs_campaign.Spec.instance spec ~seed);
        Printf.printf "worst instance (seed %d) retained at %s\n" seed worst_path
      | None -> ())
    | None -> ());
    print_string (Crs_campaign.Report.render_summary summary);
    Printf.printf "wall %.3f s (%.1f items/s)\nwrote %s and %s\n" elapsed
      (float_of_int (Array.length records) /. Float.max elapsed 1e-9)
      jsonl_path summary_path
  in
  Cmd.v
    (Cmd.info "campaign"
       ~doc:"Run a parallel batch-evaluation campaign over random instances."
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Expands a (family, seed range, algorithm list) spec into \
              independent items, evaluates them on a pool of OCaml domains, \
              and writes per-item JSONL records plus an aggregate summary \
              under the output directory. Per-item seeding is deterministic \
              and timeouts are fuel-based, so the result payload is \
              byte-identical at any pool size.";
         ])
    Term.(
      const run $ domains $ out $ metrics
      $ campaign_spec ~seeds:(1, 50) ~baseline)

(* ---- fuzz / replay ---- *)

let fuzz_cmd =
  let oracles =
    Arg.(value & opt_all string []
         & info [ "oracle" ] ~docv:"NAME"
             ~doc:("Oracle to run (repeatable); default all. One of: "
                   ^ String.concat ", " Crs_fuzz.Oracle.names ^ "."))
  in
  let seed_range =
    Arg.(value & opt string "1..50"
         & info [ "seed-range" ] ~docv:"A..B"
             ~doc:"Inclusive seed range; one instance per seed.")
  in
  let fuel =
    Arg.(value & opt int 2_000_000
         & info [ "fuel" ]
             ~doc:"Per-seed work budget (solver ticks); 0 disables metering.")
  in
  let domains =
    Arg.(value & opt int 1
         & info [ "domains" ] ~docv:"K"
             ~doc:"Domain-pool size; reports are byte-identical at any size.")
  in
  let shrink =
    Arg.(value & flag
         & info [ "shrink" ]
             ~doc:"Minimize every failing seed's instance before reporting it.")
  in
  let pin =
    Arg.(value & opt (some string) None
         & info [ "pin" ] ~docv:"DIR"
             ~doc:"Save each (shrunken) counterexample as a corpus entry in \
                   DIR with expect=\"fail\"; flip to \"pass\" once fixed.")
  in
  let run oracles seed_range family m n granularity fuel domains shrink pin =
    let family = family_or_exit family in
    let seed_lo, seed_hi =
      let bad () =
        fail
          (Printf.sprintf "bad seed range %s (expected A..B with A <= B)"
             seed_range)
      in
      match String.index_opt seed_range '.' with
      | Some i
        when i + 1 < String.length seed_range && seed_range.[i + 1] = '.' -> (
        match
          ( int_of_string_opt (String.sub seed_range 0 i),
            int_of_string_opt
              (String.sub seed_range (i + 2) (String.length seed_range - i - 2))
          )
        with
        | Some lo, Some hi when lo <= hi -> (lo, hi)
        | _ -> bad ())
      | _ -> bad ()
    in
    let selected =
      match oracles with
      | [] -> Crs_fuzz.Oracle.all
      | names ->
        List.map
          (fun name ->
            match Crs_fuzz.Oracle.find name with
            | Some o -> o
            | None ->
              fail
                (Printf.sprintf "unknown oracle %s (valid: %s)" name
                   (String.concat ", " Crs_fuzz.Oracle.names)))
          names
    in
    let spec =
      match
        Crs_campaign.Spec.validate
          {
            Crs_campaign.Spec.default with
            family;
            m;
            n;
            granularity;
            seed_lo;
            seed_hi;
            fuel = (if fuel = 0 then None else Some fuel);
          }
      with
      | Ok spec -> spec
      | Error msg -> fail ("invalid fuzz spec: " ^ msg)
    in
    let any_failure = ref false in
    List.iter
      (fun oracle ->
        let report = Crs_fuzz.Driver.run ~domains spec oracle in
        print_string (Crs_fuzz.Driver.render report);
        let failing = Crs_fuzz.Driver.failing_cases report in
        if failing <> [] then any_failure := true;
        if shrink || pin <> None then
          List.iter
            (fun (seed, _) ->
              let text, entry =
                Crs_fuzz.Driver.counterexample ~shrink spec oracle ~seed
              in
              print_string text;
              Option.iter
                (fun dir ->
                  Printf.printf "pinned %s\n" (Crs_fuzz.Corpus.save ~dir entry))
                pin)
            failing)
      selected;
    if !any_failure then exit 1
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:"Sweep differential/metamorphic oracles over seeded random instances."
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Runs each selected oracle over one instance per seed on a \
              domain pool with fuel-based timeouts. Reports are \
              deterministic: the same seed range produces byte-identical \
              output at any pool size. With --shrink, failing instances are \
              greedily minimized (drop processors, drop jobs, round \
              requirements toward {0, 1/2, 1}, shrink sizes); with --pin \
              DIR, each counterexample is saved as a corpus entry for \
              `crsched replay'. Exits 1 if any oracle failed.";
         ])
    Term.(
      const run $ oracles $ seed_range $ family_arg $ m_arg $ n_arg
      $ granularity_arg $ fuel $ domains $ shrink $ pin)

let replay_cmd =
  let dir =
    Arg.(value & pos 0 string "data/corpus"
         & info [] ~docv:"DIR" ~doc:"Corpus directory of *.json entries.")
  in
  let run dir =
    let entries = Crs_fuzz.Corpus.load_dir dir in
    if entries = [] then begin
      Printf.eprintf "error: no corpus entries under %s\n" dir;
      exit 1
    end;
    let failures = ref 0 in
    List.iter
      (fun (path, parsed) ->
        match parsed with
        | Error msg ->
          incr failures;
          Printf.printf "%-40s PARSE ERROR: %s\n" (Filename.basename path) msg
        | Ok entry -> (
          match Crs_fuzz.Corpus.replay entry with
          | Ok () ->
            Printf.printf "%-40s ok (oracle %s)\n" (Filename.basename path)
              entry.Crs_fuzz.Corpus.oracle
          | Error msg ->
            incr failures;
            Printf.printf "%-40s FAILED: %s\n" (Filename.basename path) msg))
      entries;
    Printf.printf "replayed %d entries, %d failure%s\n" (List.length entries)
      !failures
      (if !failures = 1 then "" else "s");
    if !failures > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:"Replay the pinned regression corpus (digests, seeds, oracles).")
    Term.(const run $ dir)

(* ---- render / graph ---- *)

let render_cmd =
  let run path solver =
    let instance = read_instance path in
    let trace = Execution.run_exn instance (schedule_of solver instance) in
    Printf.printf "algorithm: %s\n%s\n" solver.Registry.name
      (Crs_render.Gantt.summary trace);
    print_string (Crs_render.Gantt.render trace);
    print_newline ();
    print_string (Crs_render.Gantt.render_compact trace)
  in
  Cmd.v
    (Cmd.info "render" ~doc:"Render an algorithm's schedule as Gantt charts.")
    Term.(const run $ instance_arg $ algo_arg)

let graph_cmd =
  let output =
    Arg.(value & opt (some string) None & info [ "o" ] ~docv:"FILE" ~doc:"Write dot to FILE.")
  in
  let run path solver output =
    let instance = read_instance path in
    require_unit_size "graph" instance;
    let trace = Execution.run_exn instance (schedule_of solver instance) in
    let graph = Crs_hypergraph.Sched_graph.of_trace trace in
    Format.printf "%a@." Crs_hypergraph.Sched_graph.pp graph;
    match output with
    | Some file ->
      Crs_render.Dot.save file graph;
      Printf.printf "wrote %s\n" file
    | None -> print_string (Crs_render.Dot.of_graph graph)
  in
  Cmd.v
    (Cmd.info "graph" ~doc:"Build and print the scheduling hypergraph (Section 3.2).")
    Term.(const run $ instance_arg $ algo_arg $ output)

(* ---- normalize ---- *)

let normalize_cmd =
  let run path solver =
    let instance = read_instance path in
    require_unit_size "normalize" instance;
    let schedule = schedule_of solver instance in
    let normalized = Transform.normalize instance schedule in
    let before = Execution.run_exn instance schedule in
    let after = Execution.run_exn instance normalized in
    Printf.printf "input  (%s): %s\n" solver.Registry.name
      (Crs_render.Gantt.summary before);
    Printf.printf "output (Lemma 1): %s\n" (Crs_render.Gantt.summary after);
    print_string (Crs_render.Gantt.render after)
  in
  Cmd.v
    (Cmd.info "normalize"
       ~doc:"Apply the Lemma 1 transformation (non-wasting, progressive, nested).")
    Term.(const run $ instance_arg $ algo_arg)

(* ---- reduce ---- *)

let reduce_cmd =
  let elements =
    Arg.(
      non_empty & pos_all int []
      & info [] ~docv:"ELEMENTS" ~doc:"Partition elements (positive integers).")
  in
  let decide = Arg.(value & flag & info [ "decide" ] ~doc:"Also solve exactly and decide.") in
  let run elements decide =
    (try
       let p = Crs_reduction.Partition.make (Array.of_list elements) in
       let instance = Crs_reduction.Reduce.to_crsharing p in
       print_string (Instance.to_string instance);
       if decide then begin
         let answer =
           Crs_reduction.Reduce.decide ~exact:Crs_algorithms.Opt_config.makespan p
         in
         Printf.printf "partition: %s (optimal makespan %d iff YES)\n"
           (if answer then "YES" else "NO")
           Crs_reduction.Reduce.yes_makespan
       end
     with Invalid_argument msg ->
       Printf.eprintf "error: %s\n" msg;
       exit 1)
  in
  Cmd.v
    (Cmd.info "reduce" ~doc:"Transform a Partition instance (Theorem 4 gadget).")
    Term.(const run $ elements $ decide)

(* ---- verify ---- *)

let verify_cmd =
  let sched_arg =
    let doc = "Schedule file (one line per step, shares as rationals)." in
    Arg.(required & pos 1 (some string) None & info [] ~docv:"SCHEDULE" ~doc)
  in
  let run path sched_path =
    let instance = read_instance path in
    match Schedule.load sched_path with
    | Error msg ->
      Printf.eprintf "error: cannot read schedule: %s\n" msg;
      exit 1
    | Ok schedule -> (
      match Execution.run instance schedule with
      | Error msg ->
        Printf.printf "INFEASIBLE: %s\n" msg;
        exit 1
      | Ok trace ->
        if not trace.Execution.completed then begin
          Printf.printf "INCOMPLETE: schedule does not finish all jobs\n";
          exit 1
        end;
        Printf.printf "%s\n" (Crs_render.Gantt.summary trace);
        List.iter
          (fun (name, result) ->
            match result with
            | Ok () -> Printf.printf "  %-12s ok\n" name
            | Error v ->
              Format.printf "  %-12s VIOLATED (%a)@." name Properties.pp_violation v)
          (Properties.check_all trace);
        if Instance.is_unit_size instance then
          let lb = Crs_algorithms.Solver.certified_lower_bound instance in
          Printf.printf "certified lower bound %d => ratio at most %.3f\n" lb
            (float_of_int (Execution.makespan trace) /. float_of_int (max 1 lb))
        else
          print_endline
            "certified lower bound: not computed (defined for unit-size jobs only)")
  in
  Cmd.v
    (Cmd.info "verify" ~doc:"Validate an external schedule against an instance.")
    Term.(const run $ instance_arg $ sched_arg)

(* ---- bounds ---- *)

let bounds_cmd =
  let run path =
    let instance = read_instance path in
    require_unit_size "bounds" instance;
    let gb_trace =
      Execution.run_exn instance (Crs_algorithms.Greedy_balance.schedule instance)
    in
    let graph = Crs_hypergraph.Sched_graph.of_trace gb_trace in
    let rows =
      [
        [ "Observation 1 (total work)"; string_of_int (Lower_bounds.total_work instance) ];
        [ "job count (max_i n_i)"; string_of_int (Lower_bounds.job_count instance) ];
        [ "Lemma 5 (components)"; string_of_int (Crs_hypergraph.Bounds.lemma5 graph) ];
        [ "Lemma 6 (classes)"; string_of_int (Crs_hypergraph.Bounds.lemma6_int graph) ];
        [
          "bin-packing relaxation";
          string_of_int (Crs_binpack.Splittable.crsharing_relaxation_bound instance);
        ];
      ]
    in
    print_string (T_render.render ~header:[ "lower bound"; "value" ] rows);
    Printf.printf "GreedyBalance achieves: %d\n" (Execution.makespan gb_trace)
  in
  Cmd.v
    (Cmd.info "bounds" ~doc:"Print every certified lower bound for an instance.")
    Term.(const run $ instance_arg)

(* ---- export ---- *)

let export_cmd =
  let csv = Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"FILE" ~doc:"Write the trace as CSV.") in
  let svg = Arg.(value & opt (some string) None & info [ "svg" ] ~docv:"FILE" ~doc:"Write the schedule as SVG.") in
  let sched_out =
    Arg.(value & opt (some string) None & info [ "schedule" ] ~docv:"FILE" ~doc:"Write the raw schedule matrix.")
  in
  let run path solver csv svg sched_out =
    let instance = read_instance path in
    let schedule = schedule_of solver instance in
    let trace = Execution.run_exn instance schedule in
    Printf.printf "%s: %s\n" solver.Registry.name (Crs_render.Gantt.summary trace);
    Option.iter
      (fun f ->
        Crs_render.Export.save f (Crs_render.Export.trace_to_csv trace);
        Printf.printf "wrote %s\n" f)
      csv;
    Option.iter
      (fun f ->
        Crs_render.Svg.save f trace;
        Printf.printf "wrote %s\n" f)
      svg;
    Option.iter
      (fun f ->
        Schedule.save f schedule;
        Printf.printf "wrote %s\n" f)
      sched_out
  in
  Cmd.v
    (Cmd.info "export" ~doc:"Run an algorithm and export trace artifacts (CSV/SVG/schedule).")
    Term.(const run $ instance_arg $ algo_arg $ csv $ svg $ sched_out)

(* ---- gallery ---- *)

let gallery_cmd =
  let dir =
    Arg.(value & opt string "gallery" & info [ "d"; "dir" ] ~docv:"DIR" ~doc:"Output directory.")
  in
  let run dir =
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let emit name instance schedule =
      let trace = Execution.run_exn instance schedule in
      Instance.save (Filename.concat dir (name ^ ".instance")) instance;
      Schedule.save (Filename.concat dir (name ^ ".schedule")) schedule;
      Crs_render.Svg.save (Filename.concat dir (name ^ ".svg")) trace;
      Crs_render.Export.save
        (Filename.concat dir (name ^ ".csv"))
        (Crs_render.Export.trace_to_csv trace);
      if Instance.is_unit_size instance && trace.Execution.completed then begin
        let graph = Crs_hypergraph.Sched_graph.of_trace trace in
        Crs_render.Dot.save (Filename.concat dir (name ^ ".dot")) graph
      end;
      Printf.printf "%-24s %s\n" name (Crs_render.Gantt.summary trace)
    in
    let module A = Crs_generators.Adversarial in
    emit "figure1-greedy" A.figure1
      (Policy.run Crs_algorithms.Heuristics.smallest_requirement_first A.figure1);
    emit "figure2-nested" A.figure2 A.figure2_nested_schedule;
    emit "figure2-unnested" A.figure2 A.figure2_unnested_schedule;
    let rr = A.round_robin_family ~n:10 in
    emit "figure3-roundrobin" rr (Crs_algorithms.Round_robin.schedule rr);
    emit "figure3-optimal" rr (A.round_robin_family_opt_schedule ~n:10);
    let p = Crs_reduction.Partition.make [| 1; 2; 3 |] in
    let gadget = Crs_reduction.Reduce.to_crsharing p in
    (match Crs_reduction.Partition.solve p with
    | Some cert ->
      emit "figure4-yes-witness" gadget (Crs_reduction.Reduce.yes_witness_schedule p cert)
    | None -> ());
    let fam = A.greedy_balance_family ~m:3 ~blocks:3 () in
    emit "figure5-greedybalance" fam (Crs_algorithms.Greedy_balance.schedule fam);
    emit "figure5-staircase" fam
      (Policy.run Crs_algorithms.Heuristics.staircase fam);
    Printf.printf "artifacts written to %s/\n" dir
  in
  Cmd.v
    (Cmd.info "gallery"
       ~doc:"Regenerate every figure of the paper as SVG/CSV/dot artifacts.")
    Term.(const run $ dir)

(* ---- simulate ---- *)

let simulate_cmd =
  let cores = Arg.(value & opt int 8 & info [ "cores" ] ~doc:"Number of cores.") in
  let workload =
    Arg.(value & opt string "mixed-vm" & info [ "w"; "workload" ] ~doc:"Workload: mixed-vm, io-burst, streaming.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Random seed.") in
  let trace_file =
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"FILE" ~doc:"Replay a workload trace file instead of a synthetic workload.")
  in
  let csv =
    Arg.(value & opt (some string) None
         & info [ "csv" ] ~docv:"FILE" ~doc:"Write the greedy-balance run as per-tick CSV.")
  in
  let svg =
    Arg.(value & opt (some string) None
         & info [ "svg" ] ~docv:"FILE" ~doc:"Write the greedy-balance run as a timeline SVG.")
  in
  let run cores workload seed trace_file csv svg =
    if cores < 1 then fail (Printf.sprintf "--cores must be at least 1 (got %d)" cores);
    let st = Random.State.make [| seed |] in
    let tasks =
      match trace_file with
      | Some path -> (
        match Crs_manycore.Trace_format.load path with
        | Ok tasks -> tasks
        | Error msg ->
          Printf.eprintf "error: cannot read trace %s: %s\n" path msg;
          exit 1)
      | None -> (
        match workload with
        | "mixed-vm" -> Crs_manycore.Workload.mixed_vm ~cores st
        | "io-burst" -> Crs_manycore.Workload.io_burst ~cores ~phases:4 ~io_intensity:0.8 st
        | "streaming" -> Crs_manycore.Workload.streaming ~cores ~length:10.0 st
        | other ->
          Printf.eprintf "error: unknown workload %s\n" other;
          exit 1)
    in
    let rows =
      List.map
        (fun (p : Crs_manycore.Policy.t) ->
          let r = Crs_manycore.Engine.run p tasks in
          p.name :: Crs_manycore.Stats.to_row (Crs_manycore.Stats.of_result tasks r))
        Crs_manycore.Policy.all
    in
    print_string
      (Crs_render.Table.render ~header:("policy" :: Crs_manycore.Stats.header) rows);
    if csv <> None || svg <> None then begin
      let r = Crs_manycore.Engine.run Crs_manycore.Policy.greedy_balance tasks in
      Option.iter
        (fun f ->
          Crs_render.Export.save f (Crs_manycore.Trace_format.run_to_csv r);
          Printf.printf "wrote %s\n" f)
        csv;
      Option.iter
        (fun f ->
          Crs_render.Export.save f (Crs_manycore.Trace_format.timeline_svg tasks r);
          Printf.printf "wrote %s\n" f)
        svg
    end
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:"Run the many-core bus simulator and compare bandwidth policies.")
    Term.(const run $ cores $ workload $ seed $ trace_file $ csv $ svg)

(* ---- trace ---- *)

let trace_out_arg =
  Arg.(
    value & opt string "trace.json"
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Where to write the trace. Chrome trace_event JSON by default — \
           load it in Perfetto (ui.perfetto.dev) or chrome://tracing.")

let trace_jsonl_arg =
  Arg.(
    value & flag
    & info [ "jsonl" ]
        ~doc:
          "Write one JSON object per span (raw nanosecond timestamps) \
           instead of Chrome trace_event JSON.")

let write_trace ~jsonl path =
  let payload =
    if jsonl then Crs_obs.Trace.to_jsonl ()
    else Crs_obs.Trace.to_chrome () ^ "\n"
  in
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc payload);
  Printf.printf "wrote %s (%d spans)\n" path
    (List.length (Crs_obs.Trace.spans ()))

let trace_solve_cmd =
  let run path solver out jsonl =
    let instance = read_instance path in
    Crs_obs.Trace.set_enabled true;
    Crs_obs.Metrics.set_enabled true;
    (* An inapplicable instance exits before any span opens. *)
    let result = solve_or_exit solver instance in
    Crs_obs.Trace.set_enabled false;
    Crs_obs.Metrics.set_enabled false;
    Printf.printf "%s makespan: %d\n\nspan tree:\n%s\n" solver.Registry.name
      result.Registry.makespan
      (Crs_obs.Trace.signature ());
    write_trace ~jsonl out;
    Printf.printf "metrics: %s\n" (Crs_obs.Metrics.snapshot ())
  in
  Cmd.v
    (Cmd.info "solve"
       ~doc:"Solve one instance with tracing on; write the span trace."
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Runs the solver through the registry with the crs_obs tracer \
              and metrics registry enabled, prints the reconstructed span \
              tree (names and attributes, no timestamps) and the metrics \
              snapshot, and writes the full trace to --trace-out. See \
              EXPERIMENTS.md, section 'Reading a trace', for a walkthrough.";
         ])
    Term.(const run $ instance_arg $ algo_arg $ trace_out_arg $ trace_jsonl_arg)

let trace_campaign_cmd =
  let domains =
    Arg.(value & opt int 1
         & info [ "domains" ] ~docv:"K"
             ~doc:"Domain-pool size. The merged trace is sorted \
                   deterministically, so the span TREE is identical at any \
                   size (timestamps and thread ids differ).")
  in
  let run domains out jsonl spec =
    Crs_obs.Trace.set_enabled true;
    let records = Crs_campaign.Runner.run ~domains spec in
    Crs_obs.Trace.set_enabled false;
    Printf.printf "campaign: %s (%d records)\n\nspan tree:\n%s\n"
      (Crs_campaign.Spec.describe spec)
      (Array.length records)
      (Crs_obs.Trace.signature ());
    write_trace ~jsonl out
  in
  Cmd.v
    (Cmd.info "campaign"
       ~doc:"Run a small campaign with tracing on; write the merged trace."
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Runs a (family, seed range, algorithm list) campaign on a \
              domain pool with per-item spans enabled. Each item's span \
              carries its id, family, seed and algorithm, and the merged \
              forest is sorted on stable attributes — so the printed span \
              tree is independent of the pool size.";
         ])
    Term.(
      const run $ domains $ trace_out_arg $ trace_jsonl_arg
      $ campaign_spec ~seeds:(1, 8) ~baseline:(const "lower-bound"))

let trace_cmd =
  Cmd.group
    (Cmd.info "trace"
       ~doc:"Run a workload with the crs_obs tracer enabled and export spans.")
    [ trace_solve_cmd; trace_campaign_cmd ]

(* ---- serve ---- *)

(* Startup failures get distinct exit codes so supervisors can tell a
   configuration typo (3: unparseable --listen) from an environment
   conflict (4: bind failed, e.g. the socket path already exists). *)
let exit_bad_listen = 3
let exit_bind_failed = 4

(* serve and balance: parse --listen (exit 3) and bind it (exit 4), then
   [start] what answers on it: it prints the "listening on" line, or
   returns the exit status and message of its own failure. The socket
   closes (unlinking a Unix path) however [start] or [serve] ends, and
   before [stop] drains what [start] started, so no client connects
   into a draining process. *)
let serve_listener ~listen ~backlog ~start ~serve ~stop =
  let module Server = Crs_serve.Server in
  let fail code msg =
    Printf.eprintf "error: %s\n" msg;
    exit code
  in
  match Server.parse_address listen with
  | Error msg -> fail exit_bad_listen msg
  | Ok addr -> (
    match Server.bind_address ~backlog addr with
    | Error msg -> fail exit_bind_failed msg
    | Ok fd -> (
      let close () = Server.close_address addr fd in
      match start addr with
      | Error (code, msg) ->
        close ();
        fail code msg
      | exception e ->
        close ();
        raise e
      | Ok x ->
        Fun.protect
          ~finally:(fun () ->
            close ();
            stop x)
          (fun () -> serve x fd)))

(* [--max-fuel], shared by serve and the balance tier that forwards it
   to its shards. 0 is no ceiling. *)
let max_fuel_arg ~doc =
  Arg.(
    value & opt int 0
    & info [ "max-fuel" ] ~docv:"TICKS"
        ~doc:
          (doc
         ^ ": a solve whose fuel, its own or the $(b,--fuel) default, is \
            above $(docv), or a campaign whose per-item fuel is above it or \
            unmetered, is answered with status $(b,error) naming the \
            ceiling. 0 means no ceiling."))

(* Under a ceiling the default deadline must be metered and within it,
   or every request that omits fuel would be refused. *)
let check_fuel_ceiling ~fuel ~max_fuel =
  if max_fuel > 0 && (fuel = 0 || fuel > max_fuel) then begin
    Printf.eprintf
      "error: --fuel %s exceeds --max-fuel %d (requests that omit fuel would \
       all be refused)\n"
      (if fuel = 0 then "0 (unlimited)" else string_of_int fuel)
      max_fuel;
    exit 1
  end

let serve_cmd =
  let module Server = Crs_serve.Server in
  let d = Server.default_config in
  let listen =
    Arg.(
      value
      & opt string "unix:/tmp/crsched.sock"
      & info [ "listen" ] ~docv:"ADDR"
          ~doc:"Listen address: $(b,unix:)$(i,PATH) or $(b,tcp:)$(i,HOST:PORT).")
  in
  let stdio =
    Arg.(
      value & flag
      & info [ "stdio" ]
          ~doc:
            "Serve a single session on stdin/stdout instead of a socket \
             (useful for pipelines and tests); --listen is ignored.")
  in
  let workers =
    Arg.(
      value & opt int d.workers
      & info [ "workers" ] ~docv:"N" ~doc:"Worker domains for batch work.")
  in
  let queue =
    Arg.(
      value & opt int d.queue
      & info [ "queue" ] ~docv:"N"
          ~doc:
            "Admission bound: work requests beyond $(docv) per batch are \
             answered with status $(b,overloaded).")
  in
  let cache =
    Arg.(
      value & opt int d.cache_capacity
      & info [ "cache" ] ~docv:"N"
          ~doc:"Memo-cache capacity in entries; 0 disables caching.")
  in
  let fuel =
    Arg.(
      value
      & opt int (Option.value d.default_fuel ~default:0)
      & info [ "fuel" ] ~docv:"TICKS"
          ~doc:
            "Default per-request fuel deadline for requests that do not set \
             one; 0 means unlimited.")
  in
  let max_fuel = max_fuel_arg ~doc:"Ceiling on a work request's fuel" in
  let max_conns =
    Arg.(
      value & opt int d.max_conns
      & info [ "max-conns" ] ~docv:"N"
          ~doc:
            "Concurrent-connection bound: connections beyond $(docv) are \
             answered with one structured $(b,overloaded) response and \
             closed.")
  in
  let backlog =
    Arg.(
      value & opt int d.backlog
      & info [ "backlog" ] ~docv:"N"
          ~doc:"listen(2) backlog for the accepting socket.")
  in
  let idle_timeout =
    Arg.(
      value
      & opt float d.idle_timeout_s
      & info [ "idle-timeout" ] ~docv:"SECONDS"
          ~doc:
            "Per-connection read deadline: a connection that starts a frame \
             but completes no further byte for $(docv) seconds is evicted \
             with a structured response (slow-loris defence). Idle \
             connections with no partial frame are never evicted. 0 \
             disables the deadline.")
  in
  let warm_state =
    Arg.(
      value & opt string ""
      & info [ "warm-state" ] ~docv:"DIR"
          ~doc:
            "Cache-warming state directory (created if missing). On \
             graceful drain the server snapshots its canonical-key set to \
             $(docv)/$(i,ID).crs-warm.jsonl (crs-warm/1); on startup an \
             existing snapshot is replayed through the real solve path \
             before the first connection is served. Empty disables \
             warming.")
  in
  let warm_id =
    Arg.(
      value & opt string "serve"
      & info [ "warm-id" ] ~docv:"ID"
          ~doc:
            "Snapshot name under $(b,--warm-state) — give each member of \
             a sharded tier its own (the balancer passes shard-$(i,N)).")
  in
  let run listen stdio workers queue cache fuel max_fuel max_conns backlog
      idle_timeout warm_state warm_id =
    if
      workers < 1 || queue < 1 || cache < 0 || fuel < 0 || max_fuel < 0
      || max_conns < 1 || backlog < 1 || idle_timeout < 0.0
    then begin
      Printf.eprintf
        "error: invalid serve parameters (workers %d, queue %d, cache %d, \
         fuel %d, max-fuel %d, max-conns %d, backlog %d, idle-timeout %g)\n"
        workers queue cache fuel max_fuel max_conns backlog idle_timeout;
      exit 1
    end;
    check_fuel_ceiling ~fuel ~max_fuel;
    let config =
      {
        Server.default_config with
        Server.workers;
        queue;
        cache_capacity = cache;
        default_fuel = (if fuel = 0 then None else Some fuel);
        max_fuel = (if max_fuel = 0 then None else Some max_fuel);
        max_conns;
        backlog;
        idle_timeout_s = idle_timeout;
      }
    in
    (* Warm wiring: install the drain-time snapshot hook, then replay any
       existing snapshot through the real solve path before the server
       takes traffic. A corrupt snapshot warns and starts cold — warming
       is an optimization, never a reason to refuse to serve. *)
    let wire_warm server =
      if warm_state <> "" then begin
        (try Unix.mkdir warm_state 0o755
         with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
        let path =
          Filename.concat warm_state (warm_id ^ ".crs-warm.jsonl")
        in
        Server.set_on_drain server (fun s ->
            let n = Crs_serve.Warm.save s ~path in
            Printf.eprintf "crsched serve: warm snapshot %s (%d entries)\n%!"
              path n);
        match Crs_serve.Warm.load_and_replay server ~path with
        | Ok { Crs_serve.Warm.entries = 0; _ } -> ()
        | Ok r ->
          Printf.eprintf
            "crsched serve: warm replay %s: %d/%d entries (%d failed)\n%!"
            path r.Crs_serve.Warm.replayed r.Crs_serve.Warm.entries
            r.Crs_serve.Warm.failed
        | Error msg ->
          Printf.eprintf "crsched serve: warm replay skipped: %s\n%!" msg
      end
    in
    if stdio then begin
      let server = Server.create config in
      wire_warm server;
      Server.serve_io server ~input:Unix.stdin ~output:Unix.stdout;
      Server.drain server
    end
    else
      serve_listener ~listen ~backlog
        ~start:(fun addr ->
          let server = Server.create config in
          wire_warm server;
          Printf.eprintf "crsched serve: listening on %s\n%!"
            (Server.address_to_string addr);
          Ok server)
        ~serve:Server.serve ~stop:Server.drain
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the solver-as-a-service daemon (crs-serve/1)."
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Long-running daemon speaking the line-delimited crs-serve/1 \
              JSON protocol: one request object per line, one response per \
              line, in per-connection order. Connections are served \
              concurrently (one reader per connection, bounded by \
              $(b,--max-conns)); solve and campaign requests run on a \
              bounded worker pool behind shared admission control; \
              canonically equivalent instances (processor permutation, \
              zero-requirement padding) are answered from a memo cache \
              without re-solving. Idle connections are evicted after \
              $(b,--idle-timeout) seconds; a shutdown request drains all \
              live connections gracefully.";
           `P
             "Example: echo \
              '{\"proto\":\"crs-serve/1\",\"kind\":\"solve\",\"instance\":\"1/2 \
              1/3\\\\n1/4\"}' | crsched serve --stdio";
         ])
    Term.(
      const run $ listen $ stdio $ workers $ queue $ cache $ fuel $ max_fuel
      $ max_conns $ backlog $ idle_timeout $ warm_state $ warm_id)

(* ---- balance ---- *)

let exit_shards_failed = 5

let balance_cmd =
  let module Server = Crs_serve.Server in
  let module Balancer = Crs_serve.Balancer in
  let sd = Server.default_config in
  let listen =
    Arg.(
      value
      & opt string "unix:/tmp/crsched-balance.sock"
      & info [ "listen" ] ~docv:"ADDR"
          ~doc:
            "Public listen address: $(b,unix:)$(i,PATH) or \
             $(b,tcp:)$(i,HOST:PORT).")
  in
  let shards =
    Arg.(
      value & opt int 3
      & info [ "shards" ] ~docv:"N" ~doc:"Worker processes to run.")
  in
  let socket_dir =
    Arg.(
      value
      & opt string "/tmp/crsched-shards"
      & info [ "socket-dir" ] ~docv:"DIR"
          ~doc:
            "Directory for the private per-shard Unix sockets (created if \
             missing; owned by the tier — stale shard sockets in it are \
             unlinked).")
  in
  let warm_state =
    Arg.(
      value & opt string ""
      & info [ "warm-state" ] ~docv:"DIR"
          ~doc:
            "Passed to every shard: each persists its canonical-key set to \
             $(docv)/shard-$(i,N).crs-warm.jsonl on drain and replays it on \
             startup. Empty disables warming.")
  in
  let workers =
    Arg.(
      value & opt int sd.workers
      & info [ "workers" ] ~docv:"N" ~doc:"Worker domains per shard.")
  in
  let queue =
    Arg.(
      value & opt int sd.queue
      & info [ "queue" ] ~docv:"N" ~doc:"Admission bound per shard.")
  in
  let cache =
    Arg.(
      value & opt int sd.cache_capacity
      & info [ "cache" ] ~docv:"N"
          ~doc:"Memo-cache capacity per shard; 0 disables caching.")
  in
  let fuel =
    Arg.(
      value
      & opt int (Option.value sd.default_fuel ~default:0)
      & info [ "fuel" ] ~docv:"TICKS"
          ~doc:"Default per-request fuel deadline per shard; 0 = unlimited.")
  in
  let max_fuel =
    max_fuel_arg ~doc:"Ceiling on a work request's fuel, per shard"
  in
  let max_conns =
    Arg.(
      value & opt int sd.max_conns
      & info [ "max-conns" ] ~docv:"N"
          ~doc:
            "Concurrent client connections at the balancer; beyond $(docv) \
             a connection gets one structured $(b,overloaded) response and \
             is closed.")
  in
  let backlog =
    Arg.(
      value & opt int sd.backlog
      & info [ "backlog" ] ~docv:"N"
          ~doc:"listen(2) backlog for the public socket.")
  in
  let health_interval =
    Arg.(
      value & opt float 1.0
      & info [ "health-interval" ] ~docv:"SECONDS"
          ~doc:"Delay between per-shard stats-ping sweeps.")
  in
  let restart_backoff =
    Arg.(
      value & opt float 0.05
      & info [ "restart-backoff" ] ~docv:"SECONDS"
          ~doc:
            "First respawn delay after a worker death; doubles per \
             consecutive failure (capped at 2s), resets when a respawn \
             comes up healthy.")
  in
  let run listen shards socket_dir warm_state workers queue cache fuel max_fuel
      max_conns backlog health_interval restart_backoff =
    if
      shards < 1 || workers < 1 || queue < 1 || cache < 0 || fuel < 0
      || max_fuel < 0 || max_conns < 1 || backlog < 1 || health_interval <= 0.0
      || restart_backoff <= 0.0
    then begin
      Printf.eprintf
        "error: invalid balance parameters (shards %d, workers %d, queue %d, \
         cache %d, fuel %d, max-fuel %d, max-conns %d, backlog %d, \
         health-interval %g, restart-backoff %g)\n"
        shards workers queue cache fuel max_fuel max_conns backlog
        health_interval restart_backoff;
      exit 1
    end;
    check_fuel_ceiling ~fuel ~max_fuel;
    let shard_argv ~index ~socket =
      let base =
        [
          Sys.executable_name; "serve";
          "--listen"; "unix:" ^ socket;
          "--workers"; string_of_int workers;
          "--queue"; string_of_int queue;
          "--cache"; string_of_int cache;
          "--fuel"; string_of_int fuel;
          "--max-fuel"; string_of_int max_fuel;
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
    let cfg =
      {
        (Balancer.default_config ~shards ~socket_dir ~shard_argv) with
        Balancer.health_interval_s = health_interval;
        restart_backoff_s = restart_backoff;
        max_conns;
      }
    in
    serve_listener ~listen ~backlog
      ~start:(fun addr ->
        match Balancer.create cfg with
        | Error msg -> Error (exit_shards_failed, msg)
        | Ok balancer ->
          Printf.eprintf
            "crsched balance: listening on %s (%d shards in %s)\n%!"
            (Server.address_to_string addr)
            shards socket_dir;
          Ok balancer)
      ~serve:Balancer.serve ~stop:Balancer.drain
  in
  Cmd.v
    (Cmd.info "balance"
       ~doc:"Run a process-sharded serve tier behind one listen address."
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Forks $(b,--shards) $(b,crsched serve) worker processes on \
              private Unix sockets and balances the crs-serve/1 protocol \
              across them: every solve request is routed by rendezvous hash \
              of its canonical instance key, so canonically equivalent \
              instances always hit the same shard's memo cache and \
              responses stay byte-identical under sharding. Dead workers \
              are respawned with exponential backoff; requests to an \
              unreachable shard are answered with a structured \
              $(b,overloaded) refusal naming the shard. $(b,stats) \
              aggregates the tier (per-shard health, routing and warm \
              progress under $(b,balancer.shard)); $(b,shutdown) drains \
              the whole tier — each shard snapshots its warm state when \
              $(b,--warm-state) is set.";
           `P
             "Exit codes: 3 unparseable --listen, 4 public bind failed, 5 \
              shard processes failed to come up.";
         ])
    Term.(
      const run $ listen $ shards $ socket_dir $ warm_state $ workers $ queue
      $ cache $ fuel $ max_fuel $ max_conns $ backlog $ health_interval
      $ restart_backoff)

let main =
  let doc = "Scheduling shared continuous resources on many-cores (SPAA 2014 reproduction)." in
  Cmd.group (Cmd.info "crsched" ~version:"1.0.0" ~doc)
    [
      algorithms_cmd; gen_cmd; solve_cmd; compare_cmd; campaign_cmd; fuzz_cmd;
      replay_cmd; render_cmd; graph_cmd; normalize_cmd; reduce_cmd;
      simulate_cmd; verify_cmd; bounds_cmd; export_cmd; gallery_cmd; trace_cmd;
      serve_cmd; balance_cmd;
    ]

let () = exit (Cmd.eval main)
