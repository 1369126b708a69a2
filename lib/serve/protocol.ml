(* crs-serve/1 request parsing and response assembly.

   Parsing is two-stage: Stable_json.parse validates the line (byte
   offsets on failure), then the typed decoder below checks proto/kind
   and each body field. The client id is extracted before body
   validation so even a rejected request gets an answer it can
   correlate. *)

module J = Crs_util.Stable_json
module Spec = Crs_campaign.Spec
module Registry = Crs_algorithms.Registry

let version = "crs-serve/1"
let max_campaign_items = 10_000

type solve = {
  algorithm : string;
  instance : Crs_core.Instance.t;
  fuel : int option;
  witness : bool;
  certify : bool;
  cache : bool;
}

type request =
  | Hello
  | Solve of solve
  | Campaign of Spec.t
  | Stats
  | Shutdown

let kind_of_request = function
  | Hello -> "hello"
  | Solve _ -> "solve"
  | Campaign _ -> "campaign"
  | Stats -> "stats"
  | Shutdown -> "shutdown"

type parsed = { id : int option; body : (request, string) result }

(* ---- typed field decoding ---- *)

let ( let* ) = Result.bind

let field_str json name ~default =
  match J.member name json with
  | None -> Ok default
  | Some (J.Str s) -> Ok s
  | Some _ -> Error (Printf.sprintf "field %S must be a string" name)

let field_str_req json name =
  match J.member name json with
  | None -> Error (Printf.sprintf "missing required field %S" name)
  | Some (J.Str s) -> Ok s
  | Some _ -> Error (Printf.sprintf "field %S must be a string" name)

let field_int json name ~default =
  match J.member name json with
  | None -> Ok default
  | Some (J.Int i) -> Ok i
  | Some _ -> Error (Printf.sprintf "field %S must be an integer" name)

let field_int_opt json name ~default =
  match J.member name json with
  | None -> Ok default
  | Some J.Null -> Ok None
  | Some (J.Int i) when i >= 0 -> Ok (Some i)
  | Some (J.Int _) ->
    Error (Printf.sprintf "field %S must be a non-negative integer" name)
  | Some _ ->
    Error (Printf.sprintf "field %S must be a non-negative integer or null" name)

let field_bool json name ~default =
  match J.member name json with
  | None -> Ok default
  | Some (J.Bool b) -> Ok b
  | Some _ -> Error (Printf.sprintf "field %S must be a boolean" name)

let field_str_list json name ~default =
  match J.member name json with
  | None -> Ok default
  | Some (J.List items) ->
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | J.Str s :: rest -> go (s :: acc) rest
      | _ -> Error (Printf.sprintf "field %S must be a list of strings" name)
    in
    go [] items
  | Some _ -> Error (Printf.sprintf "field %S must be a list of strings" name)

(* ---- request bodies ---- *)

let decode_solve json =
  let* algorithm =
    field_str json "algorithm" ~default:Registry.Names.greedy_balance
  in
  let* text = field_str_req json "instance" in
  let* instance =
    match Crs_core.Instance.of_string text with
    | Ok i -> Ok i
    | Error msg -> Error (Printf.sprintf "field \"instance\": %s" msg)
  in
  let* fuel = field_int_opt json "fuel" ~default:None in
  let* witness = field_bool json "witness" ~default:false in
  let* certify = field_bool json "certify" ~default:false in
  let* cache = field_bool json "cache" ~default:true in
  Ok (Solve { algorithm; instance; fuel; witness; certify; cache })

let decode_campaign json =
  let d = Spec.default in
  let* family_s =
    field_str json "family" ~default:(Spec.family_to_string d.family)
  in
  let* family =
    match Spec.family_of_string family_s with
    | Some f -> Ok f
    | None -> Error (Printf.sprintf "unknown family %S" family_s)
  in
  let* m = field_int json "m" ~default:d.m in
  let* n = field_int json "n" ~default:d.n in
  let* granularity = field_int json "granularity" ~default:d.granularity in
  let* seed_lo = field_int json "seed_lo" ~default:d.seed_lo in
  let* seed_hi = field_int json "seed_hi" ~default:d.seed_hi in
  let* algorithms = field_str_list json "algorithms" ~default:d.algorithms in
  let* baseline_s =
    field_str json "baseline" ~default:(Spec.baseline_to_string d.baseline)
  in
  let* baseline =
    match Spec.baseline_of_string baseline_s with
    | Some b -> Ok b
    | None -> Error (Printf.sprintf "unknown baseline %S" baseline_s)
  in
  let* fuel = field_int_opt json "fuel" ~default:d.fuel in
  let spec =
    {
      Spec.family;
      m;
      n;
      granularity;
      seed_lo;
      seed_hi;
      algorithms;
      baseline;
      fuel;
    }
  in
  let* spec = Spec.validate spec in
  let items = Spec.seed_count spec * List.length spec.algorithms in
  if items > max_campaign_items then
    Error
      (Printf.sprintf "campaign of %d items exceeds the per-request cap of %d"
         items max_campaign_items)
  else Ok (Campaign spec)

let decode json =
  let* proto = field_str_req json "proto" in
  if not (String.equal proto version) then
    Error (Printf.sprintf "unsupported protocol %S (this server speaks %S)"
             proto version)
  else
    let* kind = field_str_req json "kind" in
    match kind with
    | "hello" -> Ok Hello
    | "solve" -> decode_solve json
    | "campaign" -> decode_campaign json
    | "stats" -> Ok Stats
    | "shutdown" -> Ok Shutdown
    | other -> Error (Printf.sprintf "unknown request kind %S" other)

let parse line =
  match J.parse line with
  | Error msg -> { id = None; body = Error msg }
  | Ok json ->
    let id = match J.member "id" json with Some (J.Int i) -> Some i | _ -> None in
    { id; body = decode json }

(* ---- responses ---- *)

let respond ~id ~req payload =
  let envelope =
    ("proto", J.str version)
    :: (match id with Some i -> [ ("id", J.int i) ] | None -> [])
  in
  J.obj (envelope @ [ ("kind", J.str "response"); ("req", J.str req) ] @ payload)

let counters_json c =
  J.obj (List.map (fun (k, v) -> (k, J.int v)) (Registry.Counters.to_assoc c))

let ok_solve ~algorithm ~makespan ~schedule ~counters ~canon_digest =
  [
    ("status", J.str "ok");
    ("algorithm", J.str algorithm);
    ("makespan", J.int makespan);
    ("canon", J.str canon_digest);
    ("counters", counters_json counters);
  ]
  @
  match schedule with
  | Some s -> [ ("schedule", J.str (Crs_core.Schedule.to_string s)) ]
  | None -> []

let ok_campaign (s : Crs_campaign.Report.summary) =
  [
    ("status", J.str "ok");
    ("items", J.int s.items);
    ("completed", J.int s.completed);
    ("timeouts", J.int s.timeouts);
    ("errors", J.int s.errors);
    ("not_applicable", J.int s.not_applicable);
    ("mean_ratio", J.float_opt s.mean_ratio);
    ("digest", J.str s.digest);
  ]

let ok_hello ~algorithms =
  [
    ("status", J.str "ok");
    ("server", J.str "crsched");
    ("algorithms", J.arr (List.map J.str algorithms));
  ]

let error msg = [ ("status", J.str "error"); ("error", J.str msg) ]

let timeout ~fuel ~fuel_ticks =
  [
    ("status", J.str "timeout");
    ("fuel", J.int fuel);
    ("fuel_ticks", J.int fuel_ticks);
  ]

let fuel_refused ~fuel ~max_fuel =
  [
    ("status", J.str "error");
    ( "error",
      J.str
        (Printf.sprintf "fuel %s exceeds the server's ceiling of %d ticks"
           (match fuel with Some f -> string_of_int f | None -> "unlimited")
           max_fuel) );
    ("max_fuel", J.int max_fuel);
  ]

let overloaded () = [ ("status", J.str "overloaded") ]

(* Connection-level refusals (additive statuses in crs-serve/1; the
   [req] field of these responses is "connection"). *)

let draining () =
  [
    ("status", J.str "draining");
    ("error", J.str "server is draining; request refused");
  ]

let evicted ~idle_s =
  [
    ("status", J.str "evicted");
    ( "error",
      J.str
        (Printf.sprintf "connection evicted: idle deadline %.3fs exceeded"
           idle_s) );
  ]

let oversized ~limit =
  [
    ("status", J.str "error");
    ( "error",
      J.str
        (Printf.sprintf
           "frame exceeds the %d-byte line limit; closing connection" limit) );
  ]

let not_applicable reason =
  [ ("status", J.str "not_applicable"); ("reason", J.str reason) ]
