module Q = Crs_num.Rational

type t = { width : int; steps : Q.t array array }

(* [rows] becomes the schedule's own matrix, uncopied. *)
let of_fresh_rows rows =
  if Array.length rows = 0 then
    invalid_arg "Schedule.of_rows: empty matrix; use Schedule.empty";
  let width = Array.length rows.(0) in
  Array.iter
    (fun r -> if Array.length r <> width then invalid_arg "Schedule.of_rows: ragged rows")
    rows;
  { width; steps = rows }

let of_rows rows = of_fresh_rows (Array.map Array.copy rows)

let empty ~m =
  if m <= 0 then invalid_arg "Schedule.empty: m must be positive";
  { width = m; steps = [||] }

let horizon t = Array.length t.steps
let m t = t.width

let share t ~step ~proc =
  if proc < 0 || proc >= t.width then invalid_arg "Schedule.share: proc out of range";
  if step < 0 then invalid_arg "Schedule.share: negative step";
  if step >= Array.length t.steps then Q.zero else t.steps.(step).(proc)

let row t step = Array.copy t.steps.(step)
let rows t = Array.map Array.copy t.steps
let unsafe_rows t = t.steps
let step_total t step = Q.sum_array t.steps.(step)

let append_step t shares =
  if Array.length shares <> t.width then
    invalid_arg "Schedule.append_step: wrong width";
  { t with steps = Array.append t.steps [| Array.copy shares |] }

let check_feasible t =
  let exception Bad of string in
  try
    Array.iteri
      (fun step row ->
        Array.iteri
          (fun proc s ->
            if not (Q.in_unit_interval s) then
              raise
                (Bad
                   (Printf.sprintf "share out of [0,1] at step %d, proc %d: %s" step
                      proc (Q.to_string s))))
          row;
        if Q.(sum_array row > one) then begin
          (* Name the heaviest consumer so the offending assignment can be
             found without dumping the whole step. *)
          let worst = ref 0 in
          Array.iteri
            (fun proc s -> if Q.(s > row.(!worst)) then worst := proc)
            row;
          raise
            (Bad
               (Printf.sprintf
                  "resource overused at step %d: total %s > 1 (largest share: proc %d with %s)"
                  step
                  (Q.to_string (Q.sum_array row))
                  !worst
                  (Q.to_string row.(!worst))))
        end)
      t.steps;
    Ok ()
  with Bad msg -> Error msg

let equal a b =
  a.width = b.width
  && Array.length a.steps = Array.length b.steps
  && Array.for_all2 (fun ra rb -> Array.for_all2 Q.equal ra rb) a.steps b.steps

let pp fmt t =
  Format.fprintf fmt "@[<v>";
  Array.iteri
    (fun step row ->
      Format.fprintf fmt "t%d:" (step + 1);
      Array.iter (fun s -> Format.fprintf fmt " %a" Q.pp s) row;
      if step < Array.length t.steps - 1 then Format.fprintf fmt "@,")
    t.steps;
  Format.fprintf fmt "@]"

let to_string t =
  let buf = Buffer.create (16 + (6 * t.width * Array.length t.steps)) in
  Array.iter
    (fun row ->
      Array.iteri
        (fun i s ->
          if i > 0 then Buffer.add_char buf ' ';
          Q.add_to_buffer buf s)
        row;
      Buffer.add_char buf '\n')
    t.steps;
  Buffer.contents buf

let of_string text =
  try
    match Text_rows.parse text Q.of_substring with
    | [||] -> Error "Schedule.of_string: no step lines"
    | rows -> Ok (of_fresh_rows rows)
  with
  | Invalid_argument msg | Failure msg -> Error msg
  | Division_by_zero -> Error "Schedule.of_string: zero denominator"

let load path =
  try
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> of_string (In_channel.input_all ic))
  with Sys_error msg -> Error msg

let save path t =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (to_string t))
