let array_sum_int a = Array.fold_left ( + ) 0 a

let array_max_int a =
  if Array.length a = 0 then invalid_arg "Misc.array_max_int: empty array";
  Array.fold_left max a.(0) a

let array_argmax ~compare a =
  if Array.length a = 0 then invalid_arg "Misc.array_argmax: empty array";
  let best = ref 0 in
  for i = 1 to Array.length a - 1 do
    if compare a.(i) a.(!best) > 0 then best := i
  done;
  !best

let array_argmin ~compare a =
  array_argmax ~compare:(fun x y -> compare y x) a

let range n = List.init n (fun i -> i)

let rec take n = function
  | [] -> []
  | x :: rest -> if n <= 0 then [] else x :: take (n - 1) rest

let rec drop n l =
  match l with
  | [] -> []
  | _ :: rest -> if n <= 0 then l else drop (n - 1) rest

let string_repeat s n =
  let buf = Buffer.create (String.length s * max n 0) in
  for _ = 1 to n do
    Buffer.add_string buf s
  done;
  Buffer.contents buf

let split_on_string ~sep s =
  if sep = "" then invalid_arg "Misc.split_on_string: empty separator";
  let sep_len = String.length sep and len = String.length s in
  let rec go start acc =
    if start > len then List.rev acc
    else begin
      let rec find i =
        if i + sep_len > len then None
        else if String.sub s i sep_len = sep then Some i
        else find (i + 1)
      in
      match find start with
      | None -> List.rev (String.sub s start (len - start) :: acc)
      | Some i -> go (i + sep_len) (String.sub s start (i - start) :: acc)
    end
  in
  go 0 []

let float_mean = function
  | [] -> 0.0
  | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)
