(* Tests for the parallel experiment-campaign subsystem: the runner's
   timeout/error capture, the JSONL report, and the determinism
   contract (1 domain and N domains produce identical payloads). The
   pooled cases double as the tier-1 smoke campaign that exercises the
   parallel path on every `dune runtest`. The executor under the runner
   is tested in test_exec. *)

module C = Crs_campaign

(* ---- Spec ---- *)

let spec ?(seed_lo = 1) ?(seed_hi = 6) ?(fuel = Some 2_000_000)
    ?(algorithms = [ "greedy-balance"; "round-robin" ]) () =
  {
    C.Spec.family = C.Spec.Uniform;
    m = 3;
    n = 3;
    granularity = 10;
    seed_lo;
    seed_hi;
    algorithms;
    baseline = C.Spec.Exact;
    fuel;
  }

let test_spec_expand () =
  let items = C.Spec.expand (spec ()) in
  Alcotest.(check int) "6 seeds x 2 algorithms" 12 (Array.length items);
  Alcotest.(check int) "ids sequential" 11 items.(11).C.Spec.id;
  Alcotest.(check int) "seed-major order" 1 items.(1).C.Spec.seed;
  Alcotest.(check string) "algorithms alternate" "round-robin"
    items.(1).C.Spec.algorithm

let test_empty_campaign () =
  (* An inverted seed range is a spec error, not a silent no-op: validate
     names the range, the runner refuses it, and an empty record array
     still summarizes cleanly. *)
  let inverted = spec ~seed_lo:5 ~seed_hi:4 () in
  (match C.Spec.validate inverted with
  | Ok _ -> Alcotest.fail "inverted seed range accepted"
  | Error msg ->
    Alcotest.(check bool) "message names the range" true
      (Helpers.contains ~needle:"5..4" msg);
    Alcotest.(check bool) "message says empty" true
      (Helpers.contains ~needle:"empty seed range" msg));
  (try
     ignore (C.Runner.run ~domains:2 inverted);
     Alcotest.fail "runner accepted an invalid spec"
   with Invalid_argument _ -> ());
  let s = C.Report.summarize [||] in
  Alcotest.(check int) "empty summary" 0 s.C.Report.items;
  Alcotest.(check bool) "no mean ratio" true (s.C.Report.mean_ratio = None)

let test_validate_negative_paths () =
  (* Unknown algorithm: the error lists what would have been valid. *)
  (match C.Spec.validate (spec ~algorithms:[ "no-such-algorithm" ] ()) with
  | Ok _ -> Alcotest.fail "unknown algorithm accepted"
  | Error msg ->
    Alcotest.(check bool) "names the bad algorithm" true
      (Helpers.contains ~needle:"no-such-algorithm" msg);
    Alcotest.(check bool) "lists valid names" true
      (Helpers.contains ~needle:"greedy-balance" msg));
  (match C.Spec.validate (spec ~algorithms:[] ()) with
  | Ok _ -> Alcotest.fail "empty algorithm list accepted"
  | Error msg ->
    Alcotest.(check bool) "empty list rejected" true
      (Helpers.contains ~needle:"at least one algorithm" msg));
  (* A one-seed range (lo = hi) is fine. *)
  Alcotest.(check bool) "lo = hi accepted" true
    (Result.is_ok (C.Spec.validate (spec ~seed_lo:7 ~seed_hi:7 ())))

let test_spec_instance_deterministic () =
  let sp = spec () in
  Alcotest.(check bool) "same seed, same instance" true
    (Crs_core.Instance.equal
       (C.Spec.instance sp ~seed:17)
       (C.Spec.instance sp ~seed:17))

(* ---- Runner outcomes ---- *)

let test_timeout_recorded () =
  (* Tiny fuel: the exact baseline runs dry, the item records Timeout
     instead of hanging, and the heuristic makespan is kept. *)
  let records = C.Runner.run (spec ~seed_hi:1 ~fuel:(Some 3) ()) in
  Array.iter
    (fun (r : C.Report.record) ->
      Alcotest.(check string) "timeout outcome" "timeout"
        (C.Report.outcome_label r.C.Report.outcome);
      Alcotest.(check bool) "makespan retained" true (r.C.Report.makespan <> None);
      Alcotest.(check bool) "optimum absent" true (r.C.Report.optimum = None))
    records

let test_error_captured () =
  (* An unknown algorithm is captured as an error record, not an
     exception out of the campaign. *)
  let sp = spec ~seed_hi:1 ~algorithms:[ "greedy-balance" ] () in
  let item = { C.Spec.id = 0; seed = 1; algorithm = "no-such-algorithm" } in
  let r = C.Runner.run_item sp item in
  match r.C.Report.outcome with
  | C.Report.Error msg ->
    Alcotest.(check bool) "message names the algorithm" true
      (Helpers.contains ~needle:"no-such-algorithm" msg)
  | _ -> Alcotest.fail "expected an error outcome"

let test_baseline_inapplicable () =
  (* The exact baseline goes through the same capability check as the
     algorithm, and the lower-bound baseline needs unit-size jobs too:
     on sized jobs the algorithm's makespan is kept and the record reads
     not_applicable with the baseline's reason. *)
  let instance =
    match Crs_core.Instance.of_string "1/2*2 1/3\n1/4 1/2\n" with
    | Ok i -> i
    | Error msg -> Alcotest.fail msg
  in
  let payload baseline detail =
    Printf.sprintf
      {|{"id":0,"family":"file","m":2,"n":2,"granularity":null,"seed":null,"digest":"d0b4618213614b38a534dce6281a6593","algorithm":"greedy-balance","outcome":"not_applicable","detail":"%s","makespan":3,"baseline":"%s","optimum":null,"ratio":null,"counters":{"states_expanded":0,"dp_relaxations":0,"configs_enumerated":0,"memo_hits":0,"memo_misses":0,"fuel_ticks":0}}|}
      detail baseline
  in
  List.iter
    (fun (baseline, expected) ->
      match
        C.Runner.compare_records ~names:[ "greedy-balance" ] ~baseline
          ~family:"file" instance
      with
      | [ r ] -> Alcotest.(check string) "payload" expected (C.Report.payload r)
      | _ -> Alcotest.fail "one record per name")
    [
      (C.Spec.Exact, payload "exact" "optimal requires unit-size jobs");
      (C.Spec.Lower_bound, payload "lower-bound" "lower-bound requires unit-size jobs");
    ]

(* ---- Determinism across pool sizes (and the tier-1 smoke campaign) ---- *)

let test_determinism_across_domains () =
  let sp = spec ~seed_hi:8 () in
  let seq = C.Runner.run ~domains:1 sp in
  let par = C.Runner.run ~domains:2 sp in
  Alcotest.(check int) "same item count" (Array.length seq) (Array.length par);
  Array.iteri
    (fun i r ->
      Alcotest.(check string)
        (Printf.sprintf "payload %d identical" i)
        (C.Report.payload r) (C.Report.payload par.(i)))
    seq;
  Alcotest.(check string) "payload digests equal" (C.Report.payload_digest seq)
    (C.Report.payload_digest par)

let test_determinism_under_stealing () =
  (* The executor contract at every pool size the steal paths can
     produce: 1 (no workers to steal from), 2/3 (stealing among
     underloaded peers), 8 (heavily oversubscribed on most CI boxes, so
     every interleaving of pop vs steal gets exercised). Both the
     payload digest AND the trace signature must be byte-identical. *)
  let sp = spec ~seed_hi:6 () in
  let run_traced domains =
    Crs_obs.Trace.reset ();
    Crs_obs.Trace.set_enabled true;
    let records = C.Runner.run ~domains sp in
    let signature = Crs_obs.Trace.signature () in
    Crs_obs.Trace.set_enabled false;
    Crs_obs.Trace.reset ();
    (C.Report.payload_digest records, signature)
  in
  let base_digest, base_sig = run_traced 1 in
  List.iter
    (fun domains ->
      let digest, signature = run_traced domains in
      Alcotest.(check string)
        (Printf.sprintf "payload digest identical at %d domains" domains)
        base_digest digest;
      Alcotest.(check string)
        (Printf.sprintf "trace signature identical at %d domains" domains)
        base_sig signature)
    [ 2; 3; 8 ]

let test_runner_exception_containment () =
  (* A poisoned item must not kill the campaign's worker domain: the
     runner captures per-item exceptions into Error records, so the
     parallel run completes and stays byte-identical to the sequential
     one even with a raising algorithm in the sweep. *)
  let sp = spec ~seed_hi:4 () in
  let items = C.Spec.expand sp in
  items.(3) <- { items.(3) with C.Spec.algorithm = "no-such-algorithm" };
  let eval = Array.map (C.Runner.run_item sp) in
  let seq = eval items in
  let par = Crs_exec.Exec.map ~domains:3 (C.Runner.run_item sp) items in
  Alcotest.(check string) "poisoned sweep still deterministic"
    (C.Report.payload_digest seq) (C.Report.payload_digest par);
  match par.(3).C.Report.outcome with
  | C.Report.Error msg ->
    Alcotest.(check bool) "error names the algorithm" true
      (Helpers.contains ~needle:"no-such-algorithm" msg)
  | _ -> Alcotest.fail "expected the poisoned item to record an error"

let test_smoke_campaign_summary () =
  (* Small pooled sweep: everything completes, ratios are sane, and the
     summary's worst record is replayable from its seed. *)
  let sp = spec ~seed_hi:10 () in
  let records = C.Runner.run ~domains:2 sp in
  let s = C.Report.summarize records in
  Alcotest.(check int) "all done" s.C.Report.items s.C.Report.completed;
  Alcotest.(check int) "no errors" 0 s.C.Report.errors;
  (match s.C.Report.mean_ratio with
  | Some q -> Alcotest.(check bool) "mean ratio >= 1" true (q >= 1.0)
  | None -> Alcotest.fail "expected ratios");
  match s.C.Report.worst with
  | Some w ->
    Alcotest.(check bool) "worst has a seed for replay" true (w.C.Report.seed <> None)
  | None -> Alcotest.fail "expected a worst record"

(* ---- Report encoding ---- *)

let test_jsonl_shape () =
  let records = C.Runner.run (spec ~seed_hi:2 ()) in
  let lines = String.split_on_char '\n' (String.trim (C.Report.jsonl records)) in
  Alcotest.(check int) "one line per record" (Array.length records)
    (List.length lines);
  List.iter
    (fun line ->
      Alcotest.(check bool) "object braces" true
        (String.length line > 2 && line.[0] = '{' && line.[String.length line - 1] = '}');
      List.iter
        (fun key ->
          Alcotest.(check bool) (key ^ " present") true
            (Helpers.contains ~needle:(Printf.sprintf "\"%s\":" key) line))
        [ "id"; "family"; "seed"; "digest"; "algorithm"; "outcome"; "makespan";
          "optimum"; "ratio"; "wall_ns" ])
    lines

let test_payload_excludes_timing () =
  let records = C.Runner.run (spec ~seed_hi:1 ()) in
  Array.iter
    (fun r ->
      Alcotest.(check bool) "wall_ns only in full record" true
        (Helpers.contains ~needle:"wall_ns" (C.Report.to_json r)
        && not (Helpers.contains ~needle:"wall_ns" (C.Report.payload r))))
    records

let test_json_escaping () =
  let r =
    {
      C.Report.id = 0; family = "f"; m = 1; n = 1; granularity = None;
      seed = None; digest = ""; algorithm = "a";
      outcome = C.Report.Error "a\"b\\c\nd\x01"; makespan = None;
      baseline = "exact"; optimum = None; ratio = None; counters = None;
      wall_ns = 0;
    }
  in
  Alcotest.(check bool) "quotes, backslashes, control chars escaped" true
    (Helpers.contains ~needle:{|"detail":"a\"b\\c\nd\u0001"|} (C.Report.payload r))

let suite =
  [
    Alcotest.test_case "spec: expansion" `Quick test_spec_expand;
    Alcotest.test_case "spec: empty campaign" `Quick test_empty_campaign;
    Alcotest.test_case "spec: validate negative paths" `Quick
      test_validate_negative_paths;
    Alcotest.test_case "spec: deterministic instances" `Quick
      test_spec_instance_deterministic;
    Alcotest.test_case "runner: fuel exhaustion -> timeout record" `Quick
      test_timeout_recorded;
    Alcotest.test_case "runner: errors captured per item" `Quick test_error_captured;
    Alcotest.test_case "runner: inapplicable exact baseline" `Quick
      test_baseline_inapplicable;
    Alcotest.test_case "determinism: 1-domain == 2-domain payloads" `Quick
      test_determinism_across_domains;
    Alcotest.test_case "determinism: digests + trace signatures at 1/2/3/8" `Quick
      test_determinism_under_stealing;
    Alcotest.test_case "runner: poisoned item contained under stealing" `Quick
      test_runner_exception_containment;
    Alcotest.test_case "smoke campaign on the pool (tier-1)" `Quick
      test_smoke_campaign_summary;
    Alcotest.test_case "report: JSONL shape" `Quick test_jsonl_shape;
    Alcotest.test_case "report: payload excludes timing" `Quick
      test_payload_excludes_timing;
    Alcotest.test_case "report: JSON string escaping" `Quick test_json_escaping;
  ]
