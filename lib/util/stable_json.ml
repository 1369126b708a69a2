(* Shared stable-JSON encoder/decoder. The escape table and float
   rendering were previously duplicated in Crs_campaign.Report and
   Crs_fuzz.Corpus; they live here once so every persisted JSON artifact
   (campaign JSONL, corpus entries, metrics snapshots, trace exports)
   stays byte-compatible with the others. *)

(* ---- encoding ---- *)

let needs_escape c = c = '"' || c = '\\' || Char.code c < 0x20

let rec plain_end s i n =
  if i < n && not (needs_escape (String.unsafe_get s i)) then plain_end s (i + 1) n else i

(* Unescaped runs are copied whole, and a string with nothing to escape
   is returned as is. *)
let escape s =
  let n = String.length s in
  if plain_end s 0 n = n then s
  else begin
    let buf = Buffer.create (n + 8) in
    let rec go i =
      let j = plain_end s i n in
      Buffer.add_substring buf s i (j - i);
      if j < n then begin
        (match s.[j] with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\t' -> Buffer.add_string buf "\\t"
        | c -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c)));
        go (j + 1)
      end
    in
    go 0;
    Buffer.contents buf
  end

let str s = "\"" ^ escape s ^ "\""
let str_opt = function None -> "null" | Some s -> str s
let int = string_of_int
let int_opt = function None -> "null" | Some v -> string_of_int v

(* Fixed-point, locale-free float rendering: bit-stable across runs. *)
let float f = Printf.sprintf "%.6f" f
let float_opt = function None -> "null" | Some v -> float v
let bool b = if b then "true" else "false"

let obj fields =
  "{"
  ^ String.concat "," (List.map (fun (k, v) -> str k ^ ":" ^ v) fields)
  ^ "}"

let arr elems = "[" ^ String.concat "," elems ^ "]"

(* ---- decoding ---- *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Bad of int * string

let parse text =
  let n = String.length text in
  let fail i msg = raise (Bad (i, msg)) in
  let rec skip_ws i =
    if i < n && (match text.[i] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    then skip_ws (i + 1)
    else i
  in
  let expect i c =
    if i < n && text.[i] = c then i + 1
    else fail i (Printf.sprintf "expected %C" c)
  in
  let parse_hex4 i =
    if i + 4 > n then fail i "short \\u escape"
    else
      match int_of_string_opt ("0x" ^ String.sub text i 4) with
      | Some code -> (code, i + 4)
      | None -> fail i "bad \\u escape"
  in
  (* Unescaped runs are copied whole; a string with no escape is one
     [String.sub]. *)
  let rec run_end j =
    if j < n && (match text.[j] with '"' | '\\' -> false | c -> Char.code c >= 0x20)
    then run_end (j + 1)
    else j
  in
  let parse_string i =
    let i = expect i '"' in
    let j = run_end i in
    if j < n && text.[j] = '"' then (String.sub text i (j - i), j + 1)
    else begin
      let buf = Buffer.create (2 * (j - i) + 16) in
      let rec go i =
        let j = run_end i in
        Buffer.add_substring buf text i (j - i);
        if j >= n then fail j "unterminated string"
        else
          match text.[j] with
          | '"' -> (Buffer.contents buf, j + 1)
          | '\\' ->
            if j + 1 >= n then fail j "dangling escape"
            else (
              match text.[j + 1] with
              | '"' -> Buffer.add_char buf '"'; go (j + 2)
              | '\\' -> Buffer.add_char buf '\\'; go (j + 2)
              | '/' -> Buffer.add_char buf '/'; go (j + 2)
              | 'b' -> Buffer.add_char buf '\b'; go (j + 2)
              | 'f' -> Buffer.add_char buf '\012'; go (j + 2)
              | 'n' -> Buffer.add_char buf '\n'; go (j + 2)
              | 'r' -> Buffer.add_char buf '\r'; go (j + 2)
              | 't' -> Buffer.add_char buf '\t'; go (j + 2)
              | 'u' ->
                let code, k = parse_hex4 (j + 2) in
                (* Control-character escapes are all this module writes;
                   anything beyond Latin-1 would need UTF-8 encoding. *)
                if code < 0x100 then Buffer.add_char buf (Char.chr code)
                else fail j "\\u escape beyond Latin-1 unsupported";
                go k
              | c -> fail j (Printf.sprintf "unsupported escape \\%c" c))
          | _ -> fail j "raw control character in string"
      in
      go i
    end
  in
  let parse_number i =
    let stop = ref i in
    while
      !stop < n
      &&
      match text.[!stop] with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    do
      incr stop
    done;
    let lexeme = String.sub text i (!stop - i) in
    let is_int =
      not (String.exists (fun c -> c = '.' || c = 'e' || c = 'E') lexeme)
    in
    match (is_int, int_of_string_opt lexeme, float_of_string_opt lexeme) with
    | true, Some v, _ -> (Int v, !stop)
    | _, _, Some v -> (Float v, !stop)
    | _ -> fail i (Printf.sprintf "bad number %S" lexeme)
  in
  let rec parse_value i =
    let i = skip_ws i in
    if i >= n then fail i "unexpected end of input"
    else
      match text.[i] with
      | 'n' -> parse_lit i "null" Null
      | 't' -> parse_lit i "true" (Bool true)
      | 'f' -> parse_lit i "false" (Bool false)
      | '"' ->
        let s, j = parse_string i in
        (Str s, j)
      | '[' ->
        (* A ']' closes the collection only at the start (empty) or after
           an element — a comma must be followed by a value, so trailing
           commas are rejected. *)
        let rec elems acc i =
          let v, i = parse_value i in
          let i = skip_ws i in
          if i < n && text.[i] = ',' then elems (v :: acc) (i + 1)
          else (List (List.rev (v :: acc)), expect i ']')
        in
        let j = skip_ws (i + 1) in
        if j < n && text.[j] = ']' then (List [], j + 1) else elems [] j
      | '{' ->
        let rec fields acc i =
          let k, i = parse_string (skip_ws i) in
          let i = expect (skip_ws i) ':' in
          let v, i = parse_value i in
          let i = skip_ws i in
          if i < n && text.[i] = ',' then fields ((k, v) :: acc) (i + 1)
          else (Obj (List.rev ((k, v) :: acc)), expect i '}')
        in
        let j = skip_ws (i + 1) in
        if j < n && text.[j] = '}' then (Obj [], j + 1) else fields [] j
      | '-' | '0' .. '9' -> parse_number i
      | c -> fail i (Printf.sprintf "unexpected character %C" c)
  and parse_lit i lit v =
    let k = String.length lit in
    if i + k <= n && String.sub text i k = lit then (v, i + k)
    else fail i (Printf.sprintf "expected %s" lit)
  in
  match parse_value 0 with
  | v, i ->
    let i = skip_ws i in
    if i = n then Ok v
    else
      Error
        (Printf.sprintf "offset %d: trailing garbage %C after top-level value"
           i text.[i])
  | exception Bad (i, msg) -> Error (Printf.sprintf "offset %d: %s" i msg)

let rec to_string = function
  | Null -> "null"
  | Bool b -> bool b
  | Int v -> string_of_int v
  | Float v -> float v
  | Str s -> str s
  | List vs -> arr (List.map to_string vs)
  | Obj fields -> obj (List.map (fun (k, v) -> (k, to_string v)) fields)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None
