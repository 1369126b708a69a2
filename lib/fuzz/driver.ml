open Crs_core
module Spec = Crs_campaign.Spec

type outcome = Pass | Fail of string | Timeout | Skip

type case = { seed : int; digest : string; outcome : outcome }

type report = {
  oracle : string;
  spec : Spec.t;
  cases : case array;
  passes : int;
  failures : int;
  timeouts : int;
  skips : int;
}

let outcome_label = function
  | Pass -> "pass"
  | Fail _ -> "fail"
  | Timeout -> "timeout"
  | Skip -> "skip"

let judge spec (oracle : Oracle.t) instance =
  if not (oracle.Oracle.applies instance) then Skip
  else
    match
      Crs_util.Fuel.with_fuel spec.Spec.fuel (fun () ->
          oracle.Oracle.check instance)
    with
    | Ok () -> Pass
    | Error msg -> Fail msg
    | exception Crs_util.Fuel.Out_of_fuel -> Timeout
    | exception e -> Fail ("raised " ^ Printexc.to_string e)

let evaluate spec (oracle : Oracle.t) seed =
  let instance = Spec.instance spec ~seed in
  let digest = Digest.to_hex (Digest.string (Instance.to_string instance)) in
  (* Seed is unique within a run, so these root spans merge into a total
     order whatever the pool size (same discipline as campaign.item). *)
  let outcome =
    Crs_obs.Trace.with_span_l
      (fun () ->
        [
          ("oracle", Crs_obs.Trace.Str oracle.Oracle.name);
          ("seed", Crs_obs.Trace.Int seed);
        ])
      "fuzz.case"
      (fun () ->
        let outcome = judge spec oracle instance in
        if Crs_obs.Trace.enabled () then
          Crs_obs.Trace.add_attrs
            [ ("outcome", Crs_obs.Trace.Str (outcome_label outcome)) ];
        outcome)
  in
  { seed; digest; outcome }

let run ?domains spec (oracle : Oracle.t) =
  (match Spec.validate spec with
  | Ok _ -> ()
  | Error msg -> invalid_arg ("Driver.run: " ^ msg));
  let cases = Crs_campaign.Runner.map_seeds ?domains spec (evaluate spec oracle) in
  let count p = Array.fold_left (fun acc c -> if p c.outcome then acc + 1 else acc) 0 cases in
  {
    oracle = oracle.Oracle.name;
    spec;
    cases;
    passes = count (fun o -> o = Pass);
    failures = count (function Fail _ -> true | _ -> false);
    timeouts = count (fun o -> o = Timeout);
    skips = count (fun o -> o = Skip);
  }

let failing_cases report =
  Array.to_list report.cases
  |> List.filter_map (fun c ->
         match c.outcome with Fail msg -> Some (c.seed, msg) | _ -> None)

let shrink_failure ?max_checks spec (oracle : Oracle.t) ~seed =
  let failing instance =
    match judge spec oracle instance with Fail _ -> true | _ -> false
  in
  Crs_obs.Trace.with_span_l
    (fun () ->
      [
        ("oracle", Crs_obs.Trace.Str oracle.Oracle.name);
        ("seed", Crs_obs.Trace.Int seed);
      ])
    "fuzz.shrink"
    (fun () -> Shrink.minimize ?max_checks ~failing (Spec.instance spec ~seed))

let counterexample ~shrink spec (oracle : Oracle.t) ~seed =
  let instance, text, what =
    if not shrink then (Spec.instance spec ~seed, "", "counterexample")
    else begin
      let minimized, stats = shrink_failure spec oracle ~seed in
      let msg =
        match judge spec oracle minimized with
        | Fail msg -> msg
        | o -> Printf.sprintf "(not reproducible: %s)" (outcome_label o)
      in
      ( minimized,
        Printf.sprintf
          "shrunk seed %d to %d jobs on %d processors (%d checks): %s\n%s"
          seed
          (Instance.total_jobs minimized)
          (Instance.m minimized) stats.Shrink.checks msg
          (Instance.to_string minimized),
        "shrunken counterexample" )
    end
  in
  ( text,
    Corpus.make
      ~name:(Printf.sprintf "%s-seed%d" oracle.Oracle.name seed)
      ~oracle:oracle.Oracle.name ~expect:Corpus.Fail
      ~note:
        (Printf.sprintf "%s from fuzz seed %d (%s)" what seed
           (Spec.family_to_string spec.Spec.family))
      instance )

let render report =
  let c = report.spec in
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "fuzz oracle=%s family=%s m=%d n=%d g=%d seeds=%d..%d fuel=%s\n"
       report.oracle
       (Spec.family_to_string c.Spec.family)
       c.m c.n c.granularity c.seed_lo c.seed_hi
       (match c.fuel with None -> "none" | Some b -> string_of_int b));
  Array.iter
    (fun case ->
      match case.outcome with
      | Pass -> ()
      | Fail msg ->
        Buffer.add_string buf
          (Printf.sprintf "  seed %d FAIL: %s (digest %s)\n" case.seed msg
             case.digest)
      | Timeout ->
        Buffer.add_string buf (Printf.sprintf "  seed %d timeout\n" case.seed)
      | Skip -> ())
    report.cases;
  Buffer.add_string buf
    (Printf.sprintf "%d seeds: %d pass, %d fail, %d timeout, %d skip\n"
       (Array.length report.cases)
       report.passes report.failures report.timeouts report.skips);
  let body = Buffer.contents buf in
  body ^ Printf.sprintf "report digest %s\n" (Digest.to_hex (Digest.string body))

let render_digest report = Digest.to_hex (Digest.string (render report))
