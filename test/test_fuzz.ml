(* Tests for the differential fuzzing subsystem: the independent
   certifier, the metamorphic oracles, the
   greedy shrinker (including the mutation self-test the issue demands),
   the persisted corpus, and the deterministic fuzz driver. *)

module Q = Crs_num.Rational
open Crs_core
module F = Crs_fuzz
module R = Crs_algorithms.Registry
module A = Crs_generators.Adversarial
module Spec = Crs_campaign.Spec

(* ---------- Certify ---------- *)

let test_certify_accepts_witness () =
  let sol = Crs_algorithms.Opt_config.solve A.figure1 in
  let claimed = sol.Crs_algorithms.Opt_config.makespan in
  match F.Certify.check A.figure1 sol.Crs_algorithms.Opt_config.schedule ~claimed with
  | Error msg -> Alcotest.fail ("figure 1 witness rejected: " ^ msg)
  | Ok v ->
    Alcotest.(check int) "re-derived makespan agrees" claimed v.F.Certify.makespan

let test_certify_rejects_corruption () =
  let inst = Helpers.instance_of_strings [ [ "1/2"; "1/2" ]; [ "1/2" ] ] in
  let sol = Crs_algorithms.Opt_config.solve inst in
  let sched = sol.Crs_algorithms.Opt_config.schedule in
  let claimed = sol.Crs_algorithms.Opt_config.makespan in
  (* Wrong makespan claim. *)
  (match F.Certify.check inst sched ~claimed:(claimed + 1) with
  | Ok _ -> Alcotest.fail "inflated claim certified"
  | Error msg ->
    Alcotest.(check bool) "claim error names both values" true
      (Helpers.contains ~needle:"claimed makespan" msg));
  (* Truncated witness: a job is left unfinished. *)
  let truncated = Schedule.of_rows [| Schedule.row sched 0 |] in
  (match F.Certify.check inst truncated ~claimed:1 with
  | Ok _ -> Alcotest.fail "truncated witness certified"
  | Error msg ->
    Alcotest.(check bool) "names the unfinished job" true
      (Helpers.contains ~needle:"unfinished at horizon" msg));
  (* Infeasible witness: step total above 1. *)
  let over = Helpers.schedule_of_strings [ [ "1"; "1" ]; [ "1"; "1" ] ] in
  (match F.Certify.check inst over ~claimed:2 with
  | Ok _ -> Alcotest.fail "overused witness certified"
  | Error msg ->
    Alcotest.(check bool) "names the overused step" true
      (Helpers.contains ~needle:"resource overused at step" msg));
  (* Width mismatch. *)
  let narrow = Helpers.schedule_of_strings [ [ "1" ] ] in
  Alcotest.(check bool) "width mismatch rejected" true
    (Result.is_error (F.Certify.check inst narrow ~claimed:1))

(* The acceptance criterion: every witness from every witness-capable
   solver certifies — across the adversarial gallery and 200 random
   instances. Exponential exact solvers are gated to small instances so
   the sweep stays inside tier-1 budget. *)
let certify_all_witnesses instance =
  List.iter
    (fun solver ->
      if
        solver.R.witness
        && (solver.kind <> R.Exact
           || (Instance.total_jobs instance <= 8 && Instance.m instance <= 3))
        && R.applicability solver instance = Ok ()
      then
        let out = R.solve solver instance in
        match
          F.Certify.check instance (Option.get out.R.schedule)
            ~claimed:out.R.makespan
        with
        | Ok _ -> ()
        | Error msg -> Alcotest.failf "%s failed certification: %s" solver.name msg)
    R.all

let test_certify_gallery () =
  List.iter certify_all_witnesses
    [
      A.figure1;
      A.figure2;
      A.round_robin_family ~n:4;
      A.greedy_balance_family ~m:2 ~blocks:2 ();
      A.figure5;
    ]

let test_certify_random_sweep () =
  let st = Random.State.make [| 7391 |] in
  for _ = 1 to 200 do
    certify_all_witnesses (Helpers.random_instance ~max_m:3 ~max_jobs:3 st)
  done

(* ---------- Oracles ---------- *)

let test_oracles_pass_on_random_instances () =
  let spec =
    { Spec.default with m = 2; n = 2; seed_lo = 1; seed_hi = 15 }
  in
  List.iter
    (fun oracle ->
      let report = F.Driver.run spec oracle in
      Alcotest.(check int)
        (oracle.F.Oracle.name ^ ": no failures")
        0 report.F.Driver.failures;
      Alcotest.(check int)
        (oracle.F.Oracle.name ^ ": no timeouts")
        0 report.F.Driver.timeouts)
    F.Oracle.all

let test_oracle_catches_wrong_makespan () =
  (* An oracle fed a deliberately wrong candidate must fail with a
     message naming both values. *)
  let oracle =
    F.Oracle.differential ~name:"off-by-one"
      ~reference:Crs_algorithms.Brute_force.makespan
      ~candidate:(fun i -> Crs_algorithms.Brute_force.makespan i + 1)
      ()
  in
  let inst = Helpers.instance_of_strings [ [ "1/2" ] ] in
  match oracle.F.Oracle.check inst with
  | Ok () -> Alcotest.fail "off-by-one candidate passed"
  | Error msg ->
    Alcotest.(check bool) "names candidate and reference" true
      (Helpers.contains ~needle:"candidate = 2" msg
      && Helpers.contains ~needle:"reference = 1" msg)

(* ---------- Shrink ---------- *)

let test_shrink_candidates () =
  let inst = Helpers.instance_of_strings [ [ "3/10"; "7/10" ]; [ "9/10" ] ] in
  let cands = F.Shrink.candidates inst in
  Alcotest.(check bool) "some candidate drops a processor" true
    (List.exists (fun c -> Instance.m c = 1) cands);
  Alcotest.(check bool) "some candidate drops a job" true
    (List.exists
       (fun c -> Instance.m c = 2 && Instance.total_jobs c = 2)
       cands);
  Alcotest.(check bool) "no candidate grows the instance" true
    (List.for_all
       (fun c ->
         Instance.total_jobs c <= Instance.total_jobs inst
         && Instance.m c <= Instance.m inst)
       cands);
  (* The empty-ish end of the lattice: a single unit job has only
     requirement-rounding moves left, a jobless instance none. *)
  let tiny = Helpers.instance_of_strings [ [ "3/10" ] ] in
  Alcotest.(check bool) "tiny instance still rounds requirements" true
    (F.Shrink.candidates tiny <> [])

let test_shrink_minimize_local_minimum () =
  let inst = Helpers.instance_of_strings [ [ "3/10"; "7/10" ]; [ "9/10"; "1/2" ] ] in
  let failing i = Instance.total_jobs i >= 2 in
  let shrunk, stats = F.Shrink.minimize ~failing inst in
  Alcotest.(check bool) "still failing" true (failing shrunk);
  Alcotest.(check int) "locally minimal: exactly 2 jobs" 2
    (Instance.total_jobs shrunk);
  Alcotest.(check bool) "accepted steps recorded" true (stats.F.Shrink.accepted > 0);
  Alcotest.check_raises "healthy instance refused"
    (Invalid_argument "Shrink.minimize: instance does not fail the oracle")
    (fun () ->
      ignore
        (F.Shrink.minimize
           ~failing:(fun _ -> false)
           (Helpers.instance_of_strings [ [ "1/2" ] ])))

(* The issue's mutation self-test: inject an off-by-one relaxation into
   the m=2 DP, fuzz until the differential oracle catches it, shrink,
   and land on a counterexample of at most 4 jobs — deterministically. *)
let mutation_oracle =
  F.Oracle.differential ~name:"mutated-opt-two"
    ~about:"Opt_two with an injected off-by-one against brute force"
    ~applies:(fun i ->
      Instance.m i = 2 && Instance.is_unit_size i && Instance.total_jobs i <= 10)
    ~reference:Crs_algorithms.Brute_force.makespan
    ~candidate:(fun i ->
      let ms = Crs_algorithms.Opt_two.makespan i in
      if ms >= 2 then ms - 1 else ms)
    ()

let run_mutation_hunt () =
  let spec =
    { Spec.default with m = 2; n = 2; seed_lo = 1; seed_hi = 100 }
  in
  let report = F.Driver.run spec mutation_oracle in
  match F.Driver.failing_cases report with
  | [] -> Alcotest.fail "injected mutation was never caught"
  | (seed, _) :: _ ->
    let shrunk, _stats = F.Driver.shrink_failure spec mutation_oracle ~seed in
    (seed, shrunk)

let test_mutation_self_test () =
  let seed, shrunk = run_mutation_hunt () in
  Alcotest.(check bool) "oracle still fails on the minimized instance" true
    (mutation_oracle.F.Oracle.applies shrunk
    && Result.is_error (mutation_oracle.F.Oracle.check shrunk));
  Alcotest.(check bool)
    (Printf.sprintf "shrunk to <= 4 jobs (got %d)" (Instance.total_jobs shrunk))
    true
    (Instance.total_jobs shrunk <= 4);
  (* Deterministic end to end: hunting again finds the same seed and the
     same minimal instance. *)
  let seed', shrunk' = run_mutation_hunt () in
  Alcotest.(check int) "same first failing seed" seed seed';
  Alcotest.(check string) "same minimal counterexample"
    (Instance.to_string shrunk) (Instance.to_string shrunk')

(* ---------- Corpus ---------- *)

let sample_entry () =
  F.Corpus.make ~name:"sample" ~oracle:"exact-agreement" ~note:"round \"trip\""
    ~family:"uniform" ~seed:1 ~gen_m:3 ~gen_n:3 ~gen_granularity:10
    (Spec.instance Spec.default ~seed:1)

let test_corpus_roundtrip () =
  let e = sample_entry () in
  match F.Corpus.of_json (F.Corpus.to_json e) with
  | Error msg -> Alcotest.fail ("roundtrip parse failed: " ^ msg)
  | Ok e' ->
    Alcotest.(check string) "name" e.F.Corpus.name e'.F.Corpus.name;
    Alcotest.(check string) "oracle" e.F.Corpus.oracle e'.F.Corpus.oracle;
    Alcotest.(check string) "note survives escaping" e.F.Corpus.note e'.F.Corpus.note;
    Alcotest.(check string) "instance text" e.F.Corpus.instance_text
      e'.F.Corpus.instance_text;
    Alcotest.(check string) "digest" e.F.Corpus.digest e'.F.Corpus.digest;
    Alcotest.(check bool) "seed fields" true
      (e'.F.Corpus.seed = Some 1 && e'.F.Corpus.gen_granularity = Some 10);
    Alcotest.(check bool) "replay passes" true (F.Corpus.replay e' = Ok ())

let test_corpus_detects_tampering () =
  let e = sample_entry () in
  (* A corrupted digest must be caught before anything is re-run. *)
  let tampered = { e with F.Corpus.digest = String.make 32 '0' } in
  (match F.Corpus.replay tampered with
  | Ok () -> Alcotest.fail "tampered digest replayed"
  | Error msg ->
    Alcotest.(check bool) "names the digest" true
      (Helpers.contains ~needle:"digest" msg));
  (* A drifted generator (wrong seed for the pinned text) is caught. *)
  let drifted = { e with F.Corpus.seed = Some 2 } in
  match F.Corpus.replay drifted with
  | Ok () -> Alcotest.fail "seed drift replayed"
  | Error msg ->
    Alcotest.(check bool) "names the seed" true
      (Helpers.contains ~needle:"seed" msg)

(* Tier-1 corpus replay: every pinned entry under data/corpus (copied
   into _build via the test deps) replays green. *)
let test_corpus_replay_pinned () =
  let entries = F.Corpus.load_dir "../data/corpus" in
  Alcotest.(check bool)
    (Printf.sprintf "at least 8 pinned entries (got %d)" (List.length entries))
    true
    (List.length entries >= 8);
  List.iter
    (fun (path, parsed) ->
      match parsed with
      | Error msg -> Alcotest.fail (path ^ ": " ^ msg)
      | Ok entry -> (
        (* Each file reads back to its own bytes. *)
        Alcotest.(check string) (path ^ " round-trips")
          (In_channel.with_open_text path In_channel.input_all)
          (F.Corpus.to_json entry ^ "\n");
        match F.Corpus.replay entry with
        | Ok () -> ()
        | Error msg -> Alcotest.fail (path ^ ": " ^ msg)))
    entries

(* The reader is Stable_json's strict parser: a malformed [\u] escape or
   a key spelled unescaped inside another field's string comes back as
   Error, never as an exception or a silently different entry. *)
let test_corpus_strict_reader () =
  let entry name =
    Printf.sprintf
      {|{"schema":"crs-fuzz-corpus/1","name":"%s","oracle":"exact-agreement","expect":"pass","note":"","family":null,"seed":null,"m":null,"n":null,"granularity":null,"instance":"1/2\n","digest":""}|}
      name
  in
  (match F.Corpus.of_json (entry {|crs-fuzz-\u0041|}) with
  | Ok e -> Alcotest.(check string) "a good escape" "crs-fuzz-A" e.F.Corpus.name
  | Error msg -> Alcotest.fail msg);
  List.iter
    (fun name ->
      match F.Corpus.of_json (entry name) with
      | Ok e -> Alcotest.failf "%s read as %S" name e.F.Corpus.name
      | Error _ -> ()
      | exception exn -> Alcotest.failf "%s raised %s" name (Printexc.to_string exn))
    [ {|crs-fuzz-\u0_41|}; {|crs-fuzz-\u0100|}; {|crs-fuzz-\uzzzz|}; {|a "seed":7 b|} ]

(* Seed-stability goldens: the exact text three known seeds generate.
   If Random.State or a generator family changes, this (and the pinned
   corpus) is the loud early warning. *)
let test_seed_stability_goldens () =
  let text family m n granularity seed =
    let fam = Option.get (Crs_campaign.Spec.family_of_string family) in
    Instance.to_string
      (Crs_campaign.Spec.instance
         { Crs_campaign.Spec.default with family = fam; m; n; granularity }
         ~seed)
  in
  Alcotest.(check string) "uniform seed 1"
    "1/2 3/10 1/5\n1/2 1/5 7/10\n1/5 3/10 1\n"
    (text "uniform" 3 3 10 1);
  let heavy = text "heavy-tailed" 3 3 10 42 in
  let balanced = text "balanced" 3 3 12 2024 in
  let pinned name =
    match F.Corpus.load_file (Filename.concat "../data/corpus" name) with
    | Ok e -> e.F.Corpus.instance_text
    | Error msg -> Alcotest.fail (name ^ ": " ^ msg)
  in
  Alcotest.(check string) "heavy-tailed seed 42 matches its pin"
    (pinned "seed-heavy-tailed-42.json") heavy;
  Alcotest.(check string) "balanced seed 2024 matches its pin"
    (pinned "seed-balanced-2024.json") balanced

(* ---------- Driver ---------- *)

let test_driver_deterministic () =
  let spec =
    { Spec.default with m = 2; n = 2; seed_lo = 1; seed_hi = 12 }
  in
  let oracle = Option.get (F.Oracle.find "exact-agreement") in
  let a = F.Driver.run ~domains:1 spec oracle in
  let b = F.Driver.run ~domains:3 spec oracle in
  Alcotest.(check string) "byte-identical render across pool sizes"
    (F.Driver.render a) (F.Driver.render b);
  Alcotest.(check string) "digest agrees" (F.Driver.render_digest a)
    (F.Driver.render_digest b);
  Alcotest.(check int) "one case per seed" 12 (Array.length a.F.Driver.cases);
  (* The trailing line carries the MD5 of everything above it, so a
     report is self-checking as a blob of text. *)
  let rendered = F.Driver.render a in
  (match String.rindex_opt rendered ' ' with
  | None -> Alcotest.fail "render has no digest line"
  | Some i ->
    let trailing = String.sub rendered (i + 1) (String.length rendered - i - 2) in
    let marker = "report digest " in
    let body_len = String.length rendered - String.length marker - 33 in
    Alcotest.(check string) "trailing digest covers the body" trailing
      (Digest.to_hex (Digest.string (String.sub rendered 0 body_len))));
  Alcotest.(check bool) "render mentions the digest marker" true
    (Helpers.contains ~needle:"report digest " rendered)

let test_driver_rejects_bad_config () =
  let oracle = Option.get (F.Oracle.find "exact-agreement") in
  let bad = { Spec.default with seed_lo = 5; seed_hi = 4 } in
  (try
     ignore (F.Driver.run bad oracle);
     Alcotest.fail "inverted seed range accepted"
   with Invalid_argument _ -> ());
  let bad = { Spec.default with m = 0 } in
  try
    ignore (F.Driver.run bad oracle);
    Alcotest.fail "m = 0 accepted"
  with Invalid_argument _ -> ()

let test_driver_times_out_on_tiny_fuel () =
  (* A starved budget must surface as Timeout cases, never a hang. *)
  let spec =
    {
      Spec.default with
      m = 3;
      n = 3;
      seed_lo = 1;
      seed_hi = 3;
      fuel = Some 5;
    }
  in
  let oracle = Option.get (F.Oracle.find "exact-agreement") in
  let report = F.Driver.run spec oracle in
  Alcotest.(check int) "every seed timed out" 3 report.F.Driver.timeouts

let suite =
  [
    Alcotest.test_case "certify: accepts an optimal witness" `Quick
      test_certify_accepts_witness;
    Alcotest.test_case "certify: rejects corrupted witnesses" `Quick
      test_certify_rejects_corruption;
    Alcotest.test_case "certify: adversarial gallery sweep" `Quick
      test_certify_gallery;
    Alcotest.test_case "certify: 200-instance random sweep" `Quick
      test_certify_random_sweep;
    Alcotest.test_case "oracles: clean pass on random instances" `Quick
      test_oracles_pass_on_random_instances;
    Alcotest.test_case "oracles: differential catches a wrong candidate" `Quick
      test_oracle_catches_wrong_makespan;
    Alcotest.test_case "shrink: candidate enumeration" `Quick test_shrink_candidates;
    Alcotest.test_case "shrink: minimize reaches a local minimum" `Quick
      test_shrink_minimize_local_minimum;
    Alcotest.test_case "mutation self-test: caught and shrunk to <= 4 jobs" `Quick
      test_mutation_self_test;
    Alcotest.test_case "corpus: JSON roundtrip" `Quick test_corpus_roundtrip;
    Alcotest.test_case "corpus: tampering detected" `Quick
      test_corpus_detects_tampering;
    Alcotest.test_case "corpus: pinned entries replay (tier-1)" `Quick
      test_corpus_replay_pinned;
    Alcotest.test_case "corpus: seed-stability goldens" `Quick
      test_seed_stability_goldens;
    Alcotest.test_case "driver: byte-identical across pool sizes" `Quick
      test_driver_deterministic;
    Alcotest.test_case "driver: rejects bad configs" `Quick
      test_driver_rejects_bad_config;
    Alcotest.test_case "driver: fuel exhaustion -> timeout" `Quick
      test_driver_times_out_on_tiny_fuel;
    Alcotest.test_case "corpus: strict reader refuses bad escapes" `Quick
      test_corpus_strict_reader;
  ]
