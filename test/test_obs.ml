(* Tests for the observability layer: span recording and forest
   reconstruction, the zero-cost-when-disabled contract, the Chrome
   trace_event exporter schema, metrics snapshots, and the trace
   determinism contract (same seeded campaign -> identical span trees at
   any pool size).

   Trace and Metrics are process-global; every test that enables them
   runs under [traced] / [metered], which restores the disabled state
   and clears the buffers even on failure. *)

module Trace = Crs_obs.Trace
module Metrics = Crs_obs.Metrics
module J = Crs_util.Stable_json

let traced f =
  Trace.reset ();
  Trace.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Trace.set_enabled false;
      Trace.reset ())
    f

let metered f =
  Metrics.reset ();
  Metrics.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Metrics.set_enabled false;
      Metrics.reset ())
    f

(* ---- Trace ---- *)

let test_disabled_records_nothing () =
  Trace.reset ();
  Alcotest.(check bool) "disabled" false (Trace.enabled ());
  let r = Trace.with_span ~attrs:[ ("k", Trace.Int 1) ] "noop" (fun () -> 7) in
  Alcotest.(check int) "thunk result" 7 r;
  Trace.add_attrs [ ("late", Trace.Bool true) ];
  Alcotest.(check int) "no spans recorded" 0 (List.length (Trace.spans ()))

let test_nesting_and_signature () =
  traced (fun () ->
      Trace.with_span "root" (fun () ->
          Trace.with_span ~attrs:[ ("i", Trace.Int 1) ] "child" (fun () -> ());
          Trace.with_span ~attrs:[ ("i", Trace.Int 2) ] "child" (fun () -> ()));
      Trace.with_span "root2" (fun () -> ());
      Alcotest.(check int) "span count" 4 (List.length (Trace.spans ()));
      Alcotest.(check string) "signature"
        "root\n  child{\"i\":1}\n  child{\"i\":2}\nroot2\n" (Trace.signature ()))

let test_exception_recorded () =
  traced (fun () ->
      (try
         Trace.with_span "boom" (fun () -> failwith "expected")
       with Failure _ -> ());
      match Trace.spans () with
      | [ s ] ->
        Alcotest.(check bool) "error attr present" true
          (List.mem_assoc "error" s.Trace.attrs)
      | l -> Alcotest.failf "expected 1 span, got %d" (List.length l))

let test_add_attrs_and_lazy () =
  traced (fun () ->
      let built = ref 0 in
      Trace.with_span_l
        (fun () ->
          incr built;
          [ ("eager", Trace.Int 1) ])
        "s"
        (fun () -> Trace.add_attrs [ ("late", Trace.Str "v") ]);
      Alcotest.(check int) "lazy attrs built once" 1 !built;
      Alcotest.(check string) "both attr kinds in signature"
        "s{\"eager\":1,\"late\":\"v\"}\n" (Trace.signature ()));
  (* Disabled: the lazy thunk must never run. *)
  let built = ref 0 in
  Trace.with_span_l
    (fun () ->
      incr built;
      [])
    "s"
    (fun () -> ());
  Alcotest.(check int) "lazy attrs not built when disabled" 0 !built

let test_reset_clears () =
  traced (fun () ->
      Trace.with_span "a" (fun () -> ());
      Trace.reset ();
      Alcotest.(check int) "cleared" 0 (List.length (Trace.spans ())))

(* ---- Chrome exporter schema ---- *)

let parse_exn label s =
  match J.parse s with
  | Ok v -> v
  | Error msg -> Alcotest.failf "%s: parse error: %s" label msg

let test_chrome_schema () =
  traced (fun () ->
      Trace.with_span ~attrs:[ ("q", Trace.Str "a\"b\n") ] "outer" (fun () ->
          Trace.with_span "inner" (fun () -> ()));
      let chrome = Trace.to_chrome () in
      let doc = parse_exn "chrome" chrome in
      (* Round-trip law: re-encoding the parsed document reproduces it. *)
      Alcotest.(check string) "round trip" chrome (J.to_string doc);
      let events =
        match J.member "traceEvents" doc with
        | Some (J.List evs) -> evs
        | _ -> Alcotest.fail "traceEvents missing or not a list"
      in
      Alcotest.(check int) "event count" 2 (List.length events);
      List.iter
        (fun ev ->
          (match J.member "ph" ev with
          | Some (J.Str "X") -> ()
          | _ -> Alcotest.fail "ph must be \"X\"");
          (match J.member "pid" ev with
          | Some (J.Int _) -> ()
          | _ -> Alcotest.fail "pid must be an int");
          (match J.member "tid" ev with
          | Some (J.Int _) -> ()
          | _ -> Alcotest.fail "tid must be an int");
          (match (J.member "ts" ev, J.member "dur" ev) with
          | Some (J.Float ts), Some (J.Float dur) ->
            Alcotest.(check bool) "ts >= 0" true (ts >= 0.0);
            Alcotest.(check bool) "dur >= 0" true (dur >= 0.0)
          | _ -> Alcotest.fail "ts/dur must be floats");
          match J.member "name" ev with
          | Some (J.Str _) -> ()
          | _ -> Alcotest.fail "name must be a string")
        events)

let test_jsonl_lines_parse () =
  traced (fun () ->
      Trace.with_span "a" (fun () -> Trace.with_span "b" (fun () -> ()));
      let lines =
        String.split_on_char '\n' (Trace.to_jsonl ())
        |> List.filter (fun l -> l <> "")
      in
      Alcotest.(check int) "line per span" 2 (List.length lines);
      List.iter
        (fun line ->
          let v = parse_exn "jsonl line" line in
          match (J.member "name" v, J.member "depth" v) with
          | Some (J.Str _), Some (J.Int _) -> ()
          | _ -> Alcotest.fail "jsonl line missing name/depth")
        lines)

(* ---- Metrics ---- *)

let test_metrics_disabled_noop () =
  Metrics.reset ();
  let c = Metrics.counter "test.disabled" in
  Metrics.add c 5;
  Alcotest.(check int) "no update while disabled" 0 (Metrics.counter_value c)

let test_metrics_counters_gauges () =
  metered (fun () ->
      let c = Metrics.counter "test.c" in
      let g = Metrics.gauge "test.g" in
      Metrics.incr c;
      Metrics.add c 4;
      Metrics.set g 2.5;
      Alcotest.(check int) "counter" 5 (Metrics.counter_value c);
      Alcotest.(check (float 1e-9)) "gauge" 2.5 (Metrics.gauge_value g);
      Alcotest.(check bool) "registration is idempotent" true
        (Metrics.counter_value (Metrics.counter "test.c") = 5))

(* Count, sum and (lo, count) buckets of one histogram in a metrics
   snapshot. *)
let snapshot_hist doc name =
  let hist =
    match Option.bind (J.member "histograms" doc) (J.member name) with
    | Some h -> h
    | None -> Alcotest.failf "%s missing" name
  in
  let int key =
    match J.member key hist with
    | Some (J.Int v) -> v
    | _ -> Alcotest.failf "%s: %s missing" name key
  in
  let bucket b =
    match (J.member "lo" b, J.member "count" b) with
    | Some (J.Int lo), Some (J.Int c) -> (lo, c)
    | _ -> Alcotest.fail "bucket shape"
  in
  match J.member "buckets" hist with
  | Some (J.List buckets) -> (int "count", int "sum", List.map bucket buckets)
  | _ -> Alcotest.failf "%s: buckets missing" name

let test_metrics_histogram_snapshot () =
  metered (fun () ->
      let h = Metrics.histogram "test.h" in
      List.iter (Metrics.observe h) [ 0; 1; 2; 3; 4 ];
      let doc = parse_exn "snapshot" (Metrics.snapshot ()) in
      (match J.member "schema" doc with
      | Some (J.Str "crs-metrics/1") -> ()
      | _ -> Alcotest.fail "schema marker missing");
      (* Buckets: 0 -> lo 0; 1 -> lo 1; 2,3 -> lo 2; 4 -> lo 4. *)
      Alcotest.(check (triple int int (list (pair int int))))
        "count, sum, log-scale buckets"
        (5, 10, [ (0, 1); (1, 1); (2, 2); (4, 1) ])
        (snapshot_hist doc "test.h"))

(* The one log2 histogram, on exact values: bucket k >= 1 holds
   2^(k-1) <= v < 2^k and quantiles read the upper edge 2^k, so the
   50th of 1..100 (in 32..63) reads 64 and the 99th (in 64..127) 128.
   A Metrics histogram fed the same values snapshots the same
   numbers. *)
let test_hist_exact_values () =
  let module Hist = Crs_obs.Hist in
  let summary h = (Hist.count h, Hist.sum h, Hist.max h) in
  let stats = Alcotest.(triple int int int) in
  let buckets = Alcotest.(list (pair int int)) in
  let h = Hist.create () in
  for v = 1 to 100 do
    Hist.observe h v
  done;
  Alcotest.check stats "1..100: count, sum, max" (100, 5050, 100) (summary h);
  Alcotest.(check int) "1..100: p50 edge" 64 (Hist.quantile_upper h 0.50);
  Alcotest.(check int) "1..100: p99 edge" 128 (Hist.quantile_upper h 0.99);
  Alcotest.check buckets "1..100: buckets"
    [ (1, 1); (2, 2); (4, 4); (8, 8); (16, 16); (32, 32); (64, 37) ]
    (Hist.buckets h);
  metered (fun () ->
      let m = Metrics.histogram "test.hist" in
      for v = 1 to 100 do
        Metrics.observe m v
      done;
      Alcotest.(check (triple int int (list (pair int int))))
        "Metrics histogram snapshot = Hist"
        (Hist.count h, Hist.sum h, Hist.buckets h)
        (snapshot_hist (parse_exn "snapshot" (Metrics.snapshot ())) "test.hist"));
  Hist.reset h;
  Alcotest.check stats "reset" (0, 0, 0) (summary h);
  let e = Hist.create () in
  Alcotest.check stats "empty: count, sum, max" (0, 0, 0) (summary e);
  Alcotest.(check int) "empty: p99 edge" 0 (Hist.quantile_upper e 0.99);
  Alcotest.check buckets "empty: no buckets" [] (Hist.buckets e);
  let z = Hist.create () in
  List.iter (Hist.observe z) [ 0; -5 ];
  Alcotest.check stats "0 and -5: count, sum, max" (2, -5, 0) (summary z);
  Alcotest.check buckets "0 and -5: bucket 0" [ (0, 2) ] (Hist.buckets z);
  Alcotest.(check int) "0 and -5: p99 edge" 0 (Hist.quantile_upper z 0.99)

(* ---- profiling hooks + determinism across pool sizes ---- *)

let campaign_spec =
  {
    Crs_campaign.Spec.family = Crs_campaign.Spec.Uniform;
    m = 3;
    n = 3;
    granularity = 10;
    seed_lo = 1;
    seed_hi = 4;
    algorithms =
      [
        Crs_algorithms.Registry.Names.greedy_balance;
        Crs_algorithms.Registry.Names.round_robin;
      ];
    baseline = Crs_campaign.Spec.Lower_bound;
    fuel = Some 2_000_000;
  }

let signature_of_campaign ~domains =
  traced (fun () ->
      ignore (Crs_campaign.Runner.run ~domains campaign_spec);
      Trace.signature ())

let test_campaign_trace_deterministic () =
  let s1 = signature_of_campaign ~domains:1 in
  let s2 = signature_of_campaign ~domains:2 in
  let s3 = signature_of_campaign ~domains:3 in
  Alcotest.(check bool) "non-empty" true (String.length s1 > 0);
  (* 8 items, each campaign.item + registry.solve. *)
  Alcotest.(check int) "16 span lines" 16
    (List.length
       (List.filter (fun l -> l <> "") (String.split_on_char '\n' s1)));
  Alcotest.(check string) "1 vs 2 domains" s1 s2;
  Alcotest.(check string) "1 vs 3 domains" s1 s3

let test_solver_root_span_counters () =
  (* Figure-3 sizes with the DP work each costs: cells expanded and
     relaxations. *)
  List.iter
    (fun (n, cells, relaxations) ->
      traced (fun () ->
          metered (fun () ->
              let inst = Crs_generators.Adversarial.round_robin_family ~n in
              let solver =
                Crs_algorithms.Registry.find_exn Crs_algorithms.Registry.Names.opt_two
              in
              let out = Crs_algorithms.Registry.solve solver inst in
              (* Root span carries the makespan and counter deltas. *)
              let root =
                match Trace.forest () with
                | [ t ] -> t
                | l -> Alcotest.failf "expected 1 root, got %d" (List.length l)
              in
              Alcotest.(check string) "root name" "registry.solve"
                root.Trace.span.Trace.name;
              Alcotest.(check bool) "makespan attr" true
                (List.mem_assoc "makespan" root.Trace.span.Trace.attrs);
              let dp =
                match
                  List.find_opt
                    (fun (c : Trace.tree) -> c.Trace.span.Trace.name = "opt_two.dp")
                    root.Trace.children
                with
                | Some c -> c.Trace.span
                | None -> Alcotest.fail "dp phase child missing"
              in
              (* The DP span's work attributes are the registry's counters. *)
              let attr k =
                match List.assoc_opt k dp.Trace.attrs with
                | Some (Trace.Int v) -> v
                | _ -> Alcotest.failf "opt_two.dp has no int %s" k
              in
              let c = out.Crs_algorithms.Registry.counters in
              Alcotest.(check int) "dp cells_expanded = states_expanded"
                c.Crs_algorithms.Registry.Counters.states_expanded
                (attr "cells_expanded");
              Alcotest.(check int) "dp relaxations = dp_relaxations"
                c.Crs_algorithms.Registry.Counters.dp_relaxations (attr "relaxations");
              Alcotest.(check (pair int int)) "cells, relaxations" (cells, relaxations)
                (attr "cells_expanded", attr "relaxations");
              (* One histogram observation per DP level, summing to the
                 cells expanded. *)
              let hist =
                match
                  Option.bind
                    (J.member "histograms" (parse_exn "snapshot" (Metrics.snapshot ())))
                    (J.member "opt_two.states_per_level")
                with
                | Some h -> h
                | None -> Alcotest.fail "opt_two.states_per_level missing"
              in
              (match (J.member "count" hist, J.member "sum" hist) with
              | Some (J.Int count), Some (J.Int sum) ->
                Alcotest.(check int) "one observation per level" (2 * n) count;
                Alcotest.(check int) "levels sum to cells_expanded" cells sum
              | _ -> Alcotest.fail "histogram count/sum missing");
              (* Counters exported under solver.<name>.*. *)
              Alcotest.(check int) "solve counted" 1
                (Metrics.counter_value (Metrics.counter "solver.opt-two.solves")))))
    [ (5, 20, 27); (40, 411, 586) ]

let test_fuzz_spans () =
  traced (fun () ->
      let oracle =
        match Crs_fuzz.Oracle.find "approx-bounds" with
        | Some o -> o
        | None -> List.hd Crs_fuzz.Oracle.all
      in
      let spec =
        { Crs_campaign.Spec.default with m = 2; n = 2; seed_lo = 1; seed_hi = 3 }
      in
      ignore (Crs_fuzz.Driver.run ~domains:2 spec oracle);
      let roots = Trace.forest () in
      Alcotest.(check int) "one span per seed" 3 (List.length roots);
      List.iter
        (fun (t : Trace.tree) ->
          Alcotest.(check string) "fuzz.case" "fuzz.case" t.Trace.span.Trace.name;
          Alcotest.(check bool) "outcome attr" true
            (List.mem_assoc "outcome" t.Trace.span.Trace.attrs))
        roots)

let suite =
  [
    Alcotest.test_case "disabled records nothing" `Quick
      test_disabled_records_nothing;
    Alcotest.test_case "nesting and signature" `Quick test_nesting_and_signature;
    Alcotest.test_case "exception recorded" `Quick test_exception_recorded;
    Alcotest.test_case "add_attrs and lazy attrs" `Quick test_add_attrs_and_lazy;
    Alcotest.test_case "reset clears" `Quick test_reset_clears;
    Alcotest.test_case "chrome trace schema" `Quick test_chrome_schema;
    Alcotest.test_case "jsonl lines parse" `Quick test_jsonl_lines_parse;
    Alcotest.test_case "metrics disabled no-op" `Quick test_metrics_disabled_noop;
    Alcotest.test_case "metrics counters and gauges" `Quick
      test_metrics_counters_gauges;
    Alcotest.test_case "hist: exact values, empty, non-positive" `Quick
      test_hist_exact_values;
    Alcotest.test_case "metrics histogram snapshot" `Quick
      test_metrics_histogram_snapshot;
    Alcotest.test_case "campaign trace deterministic across pool sizes" `Quick
      test_campaign_trace_deterministic;
    Alcotest.test_case "solver root span and counters" `Quick
      test_solver_root_span_counters;
    Alcotest.test_case "fuzz case spans" `Quick test_fuzz_spans;
  ]
