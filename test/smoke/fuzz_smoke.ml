(* fuzz-smoke: the tier-1 gate for the fuzzing subsystem.

   Fixed seeds, small instances, well under 5 seconds: every oracle
   sweeps a short seed range twice (reports must be byte-identical),
   and the pinned corpus replays green. Runs as a plain executable so
   `dune runtest` fails on a non-zero exit. *)

module F = Crs_fuzz

let failures = ref 0

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      incr failures;
      Printf.printf "FAIL %s\n" msg)
    fmt

let () =
  (* 1. Every oracle, seeds 1..10 on m=2/n=2: clean and deterministic,
     including across pool sizes. *)
  let spec =
    { Crs_campaign.Spec.default with m = 2; n = 2; seed_lo = 1; seed_hi = 10 }
  in
  List.iter
    (fun oracle ->
      let a = F.Driver.run ~domains:1 spec oracle in
      let b = F.Driver.run ~domains:2 spec oracle in
      let name = oracle.F.Oracle.name in
      if a.F.Driver.failures > 0 then
        List.iter
          (fun (seed, msg) -> fail "%s seed %d: %s" name seed msg)
          (F.Driver.failing_cases a);
      if a.F.Driver.timeouts > 0 then fail "%s: unexpected timeouts" name;
      if F.Driver.render a <> F.Driver.render b then
        fail "%s: report differs across pool sizes" name)
    F.Oracle.all;
  (* 2. Corpus replay (copied into _build by the deps above). *)
  let entries = F.Corpus.load_dir "../../data/corpus" in
  if List.length entries < 8 then
    fail "corpus: expected >= 8 entries, found %d" (List.length entries);
  List.iter
    (fun (path, parsed) ->
      match parsed with
      | Error msg -> fail "%s: %s" (Filename.basename path) msg
      | Ok entry -> (
        match F.Corpus.replay entry with
        | Ok () -> ()
        | Error msg -> fail "%s: %s" (Filename.basename path) msg))
    entries;
  if !failures > 0 then begin
    Printf.printf "fuzz-smoke: %d failure(s)\n" !failures;
    exit 1
  end;
  Printf.printf "fuzz-smoke: %d oracles x seeds 1..10 clean, %d corpus entries green\n"
    (List.length F.Oracle.all) (List.length entries)
