open Crs_core

type expectation = Pass | Fail

let expectation_to_string = function Pass -> "pass" | Fail -> "fail"

let expectation_of_string = function
  | "pass" -> Some Pass
  | "fail" -> Some Fail
  | _ -> None

type entry = {
  name : string;
  oracle : string;
  expect : expectation;
  note : string;
  family : string option;
  seed : int option;
  gen_m : int option;
  gen_n : int option;
  gen_granularity : int option;
  instance_text : string;
  digest : string;
}

let digest_of ~oracle ~instance_text =
  Digest.to_hex (Digest.string (oracle ^ "\n" ^ instance_text))

let make ~name ~oracle ?(expect = Pass) ?(note = "") ?family ?seed ?gen_m ?gen_n
    ?gen_granularity instance =
  let instance_text = Instance.to_string instance in
  let seeded = [ seed <> None; gen_m <> None; gen_n <> None;
                 gen_granularity <> None; family <> None ] in
  if List.exists (fun b -> b) seeded && not (List.for_all (fun b -> b) seeded)
  then
    invalid_arg
      "Corpus.make: family/seed/gen_m/gen_n/gen_granularity must be given \
       together";
  {
    name;
    oracle;
    expect;
    note;
    family;
    seed;
    gen_m;
    gen_n;
    gen_granularity;
    instance_text;
    digest = digest_of ~oracle ~instance_text;
  }

(* ---- JSON encoding (shared stable encoder, see Crs_util.Stable_json;
   the pinned corpus digests depend on this staying byte-identical) ---- *)

let jstr = Crs_util.Stable_json.str
let jstr_opt = Crs_util.Stable_json.str_opt
let jint_opt = Crs_util.Stable_json.int_opt

let to_json e =
  Crs_util.Stable_json.obj
    [
      ("schema", jstr "crs-fuzz-corpus/1");
      ("name", jstr e.name);
      ("oracle", jstr e.oracle);
      ("expect", jstr (expectation_to_string e.expect));
      ("note", jstr e.note);
      ("family", jstr_opt e.family);
      ("seed", jint_opt e.seed);
      ("m", jint_opt e.gen_m);
      ("n", jint_opt e.gen_n);
      ("granularity", jint_opt e.gen_granularity);
      ("instance", jstr e.instance_text);
      ("digest", jstr e.digest);
    ]

(* ---- reader: the shared strict parser, then typed fields ---- *)

let of_json text =
  let module J = Crs_util.Stable_json in
  let ( let* ) = Result.bind in
  let* json = J.parse text in
  let string_field key =
    match J.member key json with
    | Some (J.Str s) -> Ok s
    | None -> Error (Printf.sprintf "missing field %S" key)
    | Some _ -> Error (Printf.sprintf "field %S is not a string" key)
  in
  (* The generator pins: absent or null reads as None. *)
  let opt_field key read =
    match J.member key json with
    | None | Some J.Null -> Ok None
    | Some v -> (
      match read v with
      | Some _ as x -> Ok x
      | None -> Error (Printf.sprintf "field %S has the wrong type" key))
  in
  let str_opt key = opt_field key (function J.Str s -> Some s | _ -> None) in
  let int_opt key = opt_field key (function J.Int n -> Some n | _ -> None) in
  let* schema = string_field "schema" in
  if schema <> "crs-fuzz-corpus/1" then
    Error (Printf.sprintf "unknown corpus schema %S" schema)
  else
    let* name = string_field "name" in
    let* oracle = string_field "oracle" in
    let* expect_s = string_field "expect" in
    let* expect =
      match expectation_of_string expect_s with
      | Some e -> Ok e
      | None -> Error (Printf.sprintf "bad expect value %S" expect_s)
    in
    let* note = string_field "note" in
    let* family = str_opt "family" in
    let* seed = int_opt "seed" in
    let* gen_m = int_opt "m" in
    let* gen_n = int_opt "n" in
    let* gen_granularity = int_opt "granularity" in
    let* instance_text = string_field "instance" in
    let* digest = string_field "digest" in
    Ok
      {
        name;
        oracle;
        expect;
        note;
        family;
        seed;
        gen_m;
        gen_n;
        gen_granularity;
        instance_text;
        digest;
      }

(* ---- files ---- *)

let save ~dir e =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = Filename.concat dir (e.name ^ ".json") in
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (to_json e ^ "\n"));
  path

let load_file path =
  try of_json (In_channel.with_open_text path In_channel.input_all)
  with Sys_error msg -> Error msg

let load_dir dir =
  match Sys.readdir dir with
  | exception Sys_error msg -> [ (dir, Error msg) ]
  | files ->
    Array.to_list files
    |> List.filter (fun f -> Filename.check_suffix f ".json")
    |> List.sort String.compare
    |> List.map (fun f ->
           let path = Filename.concat dir f in
           (path, load_file path))

(* Regenerate the pinned instance from its seed through the same
   campaign seeding discipline ([Random.State.make [|seed|]]); a silent
   generator or PRNG change then fails replay loudly. *)
let regenerate e =
  match (e.family, e.seed, e.gen_m, e.gen_n, e.gen_granularity) with
  | Some family, Some seed, Some m, Some n, Some granularity -> (
    match Crs_campaign.Spec.family_of_string family with
    | None -> Some (Error (Printf.sprintf "unknown generator family %S" family))
    | Some fam ->
      let spec = { Crs_campaign.Spec.default with family = fam; m; n; granularity } in
      Some (Ok (Crs_campaign.Spec.instance spec ~seed)))
  | None, None, None, None, None -> None
  | _ -> Some (Error "partial generator pin (family/seed/m/n/granularity)")

let replay e =
  let expected_digest = digest_of ~oracle:e.oracle ~instance_text:e.instance_text in
  if e.digest <> expected_digest then
    Error
      (Printf.sprintf "digest mismatch: recorded %s, computed %s" e.digest
         expected_digest)
  else
    match Instance.of_string e.instance_text with
    | Error msg -> Error ("pinned instance does not parse: " ^ msg)
    | Ok instance -> (
      let seed_ok =
        match regenerate e with
        | None -> Ok ()
        | Some (Error msg) -> Error msg
        | Some (Ok regen) ->
          let regen_text = Instance.to_string regen in
          if String.equal regen_text e.instance_text then Ok ()
          else
            Error
              (Printf.sprintf
                 "seed %s no longer reproduces the pinned instance:\n\
                  pinned:\n%sregenerated:\n%s"
                 (match e.seed with Some s -> string_of_int s | None -> "?")
                 e.instance_text regen_text)
      in
      match seed_ok with
      | Error _ as err -> err
      | Ok () -> (
        match Oracle.find e.oracle with
        | None ->
          Error
            (Printf.sprintf "unknown oracle %S (valid: %s)" e.oracle
               (String.concat ", " Oracle.names))
        | Some oracle ->
          if not (oracle.Oracle.applies instance) then
            Error (Printf.sprintf "oracle %s does not apply" e.oracle)
          else (
            match (oracle.Oracle.check instance, e.expect) with
            | Ok (), Pass | Error _, Fail -> Ok ()
            | Error msg, Pass ->
              Error (Printf.sprintf "expected pass, oracle failed: %s" msg)
            | Ok (), Fail ->
              Error
                "expected a failing counterexample but the oracle now passes \
                 (bug fixed? flip expect to \"pass\")")))
