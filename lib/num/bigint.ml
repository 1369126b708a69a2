type t = { sign : int; mag : Natural.t }
(* Invariant: sign = 0 iff mag = 0; otherwise sign is -1 or +1. *)

let make sign mag =
  if Natural.is_zero mag then { sign = 0; mag = Natural.zero }
  else begin
    assert (sign = 1 || sign = -1);
    { sign; mag }
  end

let zero = { sign = 0; mag = Natural.zero }
let of_natural mag = make 1 mag
let one = of_natural Natural.one
let minus_one = make (-1) Natural.one

let of_int n =
  if n = 0 then zero
  else if n > 0 then make 1 (Natural.of_int n)
  else if n = min_int then
    (* [-min_int] overflows; build from [max_int] + 1. *)
    make (-1) (Natural.add (Natural.of_int max_int) Natural.one)
  else make (-1) (Natural.of_int (-n))

let sign t = t.sign
let is_zero t = t.sign = 0
let abs_natural t = t.mag
let abs t = if t.sign < 0 then { t with sign = 1 } else t
let neg t = { t with sign = -t.sign }

(* |min_int| = 2^62 does not fit in a non-negative int, so handle it
   explicitly. *)
let min_int_mag = Natural.shift_left Natural.one 62

let to_int_opt t =
  match Natural.to_int_opt t.mag with
  | Some i -> Some (t.sign * i)
  | None ->
    if t.sign < 0 && Natural.equal t.mag min_int_mag then Some min_int else None

let to_int_exn t =
  match to_int_opt t with
  | Some i -> i
  | None -> failwith "Bigint.to_int_exn: value too large"

let compare a b =
  if a.sign <> b.sign then Stdlib.compare a.sign b.sign
  else a.sign * Natural.compare a.mag b.mag

let equal a b = compare a b = 0

let compare_int t (m : int) =
  (* Order against a machine int of either sign without allocating.
     [m = min_int] needs the precomputed magnitude because [-min_int]
     overflows. *)
  if m > 0 then if t.sign <= 0 then -1 else Natural.compare_int t.mag m
  else if m = 0 then t.sign
  else if t.sign >= 0 then 1
  else if m = min_int then Natural.compare min_int_mag t.mag
  else -Natural.compare_int t.mag (-m)
let hash t = (t.sign * 1_000_003) lxor Natural.hash t.mag
let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b

let add a b =
  if a.sign = 0 then b
  else if b.sign = 0 then a
  else if a.sign = b.sign then make a.sign (Natural.add a.mag b.mag)
  else begin
    let c = Natural.compare a.mag b.mag in
    if c = 0 then zero
    else if c > 0 then make a.sign (Natural.sub a.mag b.mag)
    else make b.sign (Natural.sub b.mag a.mag)
  end

let sub a b = add a (neg b)

let mul a b =
  if a.sign = 0 || b.sign = 0 then zero
  else make (a.sign * b.sign) (Natural.mul a.mag b.mag)

(* Euclidean division: remainder is always in [0, |b|). *)
let divmod a b =
  if b.sign = 0 then raise Division_by_zero;
  let q, r = Natural.divmod a.mag b.mag in
  if a.sign >= 0 then (make b.sign q, of_natural r)
  else if Natural.is_zero r then (make (-b.sign) q, zero)
  else
    (* a < 0 with a positive remainder: round the quotient away from zero
       and compensate so that 0 <= r' < |b|. *)
    (make (-b.sign) (Natural.add q Natural.one), of_natural (Natural.sub b.mag r))

let div a b = fst (divmod a b)
let rem a b = snd (divmod a b)

let gcd a b = Natural.gcd a.mag b.mag

let pow b e =
  if e < 0 then invalid_arg "Bigint.pow: negative exponent";
  let mag = Natural.pow b.mag e in
  if b.sign = 0 then if e = 0 then one else zero
  else make (if b.sign > 0 || e land 1 = 0 then 1 else -1) mag

let to_string t =
  match t.sign with
  | 0 -> "0"
  | s -> (if s < 0 then "-" else "") ^ Natural.to_string t.mag

let of_string s =
  let len = String.length s in
  if len = 0 then invalid_arg "Bigint.of_string: empty string";
  match s.[0] with
  | '-' -> make (-1) (Natural.of_string (String.sub s 1 (len - 1)))
  | '+' -> make 1 (Natural.of_string (String.sub s 1 (len - 1)))
  | _ -> make 1 (Natural.of_string s)

let pp fmt t = Format.pp_print_string fmt (to_string t)
