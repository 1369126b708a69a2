let is_blank = function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false

(* A row's values arrive last-first; [fill] stores them from the back. *)
let rec fill a k = function
  | [] -> a
  | v :: rest ->
    a.(k) <- v;
    fill a (k - 1) rest

let row text i e token =
  let values = ref [] and count = ref 0 and k = ref i in
  while !k < e do
    let start = !k in
    while !k < e && text.[!k] <> ' ' && text.[!k] <> '\t' do incr k done;
    if !k > start then begin
      values := token text start (!k - start) :: !values;
      incr count
    end;
    incr k
  done;
  match !values with [] -> [||] | v :: _ -> fill (Array.make !count v) (!count - 1) !values

let parse text token =
  let n = String.length text and rows = ref [] and i = ref 0 in
  while !i <= n do
    let e = match String.index_from_opt text !i '\n' with Some e -> e | None -> n in
    let k = ref !i in
    while !k < e && is_blank text.[!k] do incr k done;
    if !k < e && text.[!k] <> '#' then rows := row text !i e token :: !rows;
    i := e + 1
  done;
  Array.of_list (List.rev !rows)
