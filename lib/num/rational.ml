(* Two-tier exact rationals.

   The hot loops of the analysis layer (Opt_two's DP relaxations, the
   brute-force memo probes) work almost exclusively on tiny paper-style
   fractions: requirements j/n, shares summing to 1, makespans of a few
   units. Those live in the immediate small tier [S]: numerator and
   denominator as native ints, reduced with the division-free binary
   gcd, no heap traffic beyond the result block itself. Values whose
   reduced parts exceed [small_bound] spill to the bigint-backed tier
   [B]; every operation renormalizes its result back into [S] whenever
   it fits, so a chain of operations that wanders out of range and back
   returns to the fast representation on its own. *)

type t =
  | S of { p : int; q : int }
  | B of { num : Bigint.t; den : Bigint.t }
(* Invariants (checked by [is_canonical], exercised by [Check]):
   - S: q > 0, gcd(|p|, q) = 1, p = 0 implies q = 1, and both
     |p| <= small_bound and q <= small_bound.
   - B: den > 0, gcd(|num|, den) = 1, num <> 0, and the pair does NOT
     fit the small tier (otherwise it would be an S).
   Canonical + tier-deterministic means [equal] and [hash] can work
   per constructor without cross-tier comparisons. *)

let small_bound = (1 lsl 31) - 1
(* 2^31 - 1: any product of two small parts is at most (2^31 - 1)^2,
   which fits a 63-bit int, so cross products in [add], [mul] and
   [compare] never overflow individually — only the SUM of two cross
   products in [add]/[sub] needs an explicit check. *)

let is_small = function S _ -> true | B _ -> false

(* Does a bigint pair (den > 0) fit the small tier? Rejects without
   allocating; the common case in the spill path is "no". *)
let fits_small num den =
  Bigint.compare_int num small_bound <= 0
  && Bigint.compare_int num (-small_bound) >= 0
  && Bigint.compare_int den small_bound <= 0

(* Normalize a bigint fraction: sign into the numerator, reduce by the
   gcd, then demote into the small tier when the parts fit. *)
let norm_big num den =
  let s = Bigint.sign den in
  if s = 0 then raise Division_by_zero;
  let num = if s < 0 then Bigint.neg num else num in
  let den = Bigint.abs den in
  if Bigint.is_zero num then S { p = 0; q = 1 }
  else begin
    let g = Bigint.of_natural (Bigint.gcd num den) in
    let num, den =
      if Bigint.equal g Bigint.one then (num, den)
      else (Bigint.div num g, Bigint.div den g)
    in
    if fits_small num den then
      S { p = Bigint.to_int_exn num; q = Bigint.to_int_exn den }
    else B { num; den }
  end

(* Normalize a machine-int fraction. [min_int] would overflow negation
   and [abs], so it is routed through the bigint path; everything else
   reduces with the binary int gcd and stays unboxed. *)
let norm_ints p q =
  if q = 0 then raise Division_by_zero;
  if p = min_int || q = min_int then
    norm_big (Bigint.of_int p) (Bigint.of_int q)
  else begin
    let negative = p < 0 <> (q < 0) in
    let ap = abs p and aq = abs q in
    if ap = 0 then S { p = 0; q = 1 }
    else begin
      let g = Natural.gcd_int ap aq in
      let ap = ap / g and aq = aq / g in
      if ap <= small_bound && aq <= small_bound then
        S { p = (if negative then -ap else ap); q = aq }
      else
        B
          { num = Bigint.of_int (if negative then -ap else ap);
            den = Bigint.of_int aq;
          }
    end
  end

let make num den = norm_big num den

let of_int n =
  if n >= -small_bound && n <= small_bound then S { p = n; q = 1 }
  else B { num = Bigint.of_int n; den = Bigint.one }

let of_bigint n =
  match Bigint.to_int_opt n with
  | Some i -> of_int i
  | None -> B { num = n; den = Bigint.one }

let of_ints p q = norm_ints p q

let zero = S { p = 0; q = 1 }
let one = S { p = 1; q = 1 }
let two = S { p = 2; q = 1 }
let half = S { p = 1; q = 2 }
let minus_one = S { p = -1; q = 1 }

let num = function S { p; _ } -> Bigint.of_int p | B { num; _ } -> num
let den = function S { q; _ } -> Bigint.of_int q | B { den; _ } -> den

let sign = function S { p; _ } -> Stdlib.compare p 0 | B { num; _ } -> Bigint.sign num

(* Zero and one always fit the small tier, so [B] cannot hold them. *)
let is_zero = function S { p; _ } -> p = 0 | B _ -> false
let is_one = function S { p; q } -> p = 1 && q = 1 | B _ -> false
let is_integer = function S { q; _ } -> q = 1 | B { den; _ } -> Bigint.equal den Bigint.one

(* Canonicality makes equality structural per tier; a value never has
   both an S and a B spelling. *)
let equal a b =
  match (a, b) with
  | S x, S y -> x.p = y.p && x.q = y.q
  | B x, B y -> Bigint.equal x.num y.num && Bigint.equal x.den y.den
  | S _, B _ | B _, S _ -> false

let compare a b =
  match (a, b) with
  | S x, S y ->
    (* x.p/x.q ? y.p/y.q  <=>  x.p*y.q ? y.p*x.q (denominators
       positive); each product is below 2^62, no overflow. *)
    Stdlib.compare (x.p * y.q) (y.p * x.q)
  | _ ->
    (* At least one bigint operand: settle on signs first, then on
       structural equality, and only then pay for cross products. *)
    let sa = sign a and sb = sign b in
    if sa <> sb then Stdlib.compare sa sb
    else if equal a b then 0
    else Bigint.compare (Bigint.mul (num a) (den b)) (Bigint.mul (num b) (den a))

let hash = function
  | S { p; q } -> ((p * 65599) + q) land max_int
  | B { num; den } -> Bigint.hash num lxor (Bigint.hash den * 7)

let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b

(* Small-tier magnitudes are bounded well below max_int, so negation
   never overflows and tier membership is sign-symmetric. *)
let neg = function
  | S { p; q } -> S { p = -p; q }
  | B { num; den } -> B { num = Bigint.neg num; den }

let abs = function
  | S { p; q } -> S { p = Stdlib.abs p; q }
  | B { num; den } -> B { num = Bigint.abs num; den }

let add a b =
  match (a, b) with
  | S x, S y ->
    if x.q = y.q then
      (* Common denominator (ubiquitous when accumulating shares of a
         fixed grid): the numerator sum of two smalls cannot overflow. *)
      norm_ints (x.p + y.p) x.q
    else begin
      let n1 = x.p * y.q and n2 = y.p * x.q in
      let s = n1 + n2 in
      (* The products fit individually; their sum overflows iff the
         operands share a sign and the sum's sign flipped. *)
      if n1 >= 0 = (n2 >= 0) && s >= 0 <> (n1 >= 0) then
        norm_big
          (Bigint.add (Bigint.of_int n1) (Bigint.of_int n2))
          (Bigint.of_int (x.q * y.q))
      else norm_ints s (x.q * y.q)
    end
  | _ ->
    norm_big
      (Bigint.add (Bigint.mul (num a) (den b)) (Bigint.mul (num b) (den a)))
      (Bigint.mul (den a) (den b))

let sub a b =
  match (a, b) with
  | S x, S y ->
    if x.q = y.q then norm_ints (x.p - y.p) x.q
    else begin
      let n1 = x.p * y.q and n2 = y.p * x.q in
      let d = n1 - n2 in
      (* Difference overflows iff signs differ and the result's sign
         does not follow the minuend. *)
      if n1 >= 0 <> (n2 >= 0) && d >= 0 <> (n1 >= 0) then
        norm_big
          (Bigint.sub (Bigint.of_int n1) (Bigint.of_int n2))
          (Bigint.of_int (x.q * y.q))
      else norm_ints d (x.q * y.q)
    end
  | _ -> add a (neg b)

let mul a b =
  match (a, b) with
  | S x, S y ->
    if x.p = 0 || y.p = 0 then zero
    else begin
      (* Cross-reduce before multiplying: gcd(|x.p|, y.q) and
         gcd(|y.p|, x.q) strip every common factor (each numerator is
         already coprime to its own denominator), so the products below
         are canonical without a final gcd. *)
      let g1 = Natural.gcd_int (Stdlib.abs x.p) y.q
      and g2 = Natural.gcd_int (Stdlib.abs y.p) x.q in
      let p = x.p / g1 * (y.p / g2) and q = x.q / g2 * (y.q / g1) in
      if p >= -small_bound && p <= small_bound && q <= small_bound then
        S { p; q }
      else B { num = Bigint.of_int p; den = Bigint.of_int q }
    end
  | _ -> norm_big (Bigint.mul (num a) (num b)) (Bigint.mul (den a) (den b))

let div a b =
  match (a, b) with
  | S x, S y ->
    if y.p = 0 then raise Division_by_zero
    else if x.p = 0 then zero
    else begin
      let bp = Stdlib.abs y.p in
      (* Same cross-reduction as [mul], against the flipped divisor. *)
      let g1 = Natural.gcd_int (Stdlib.abs x.p) bp
      and g2 = Natural.gcd_int x.q y.q in
      let p = x.p / g1 * (y.q / g2) and q = x.q / g2 * (bp / g1) in
      let p = if y.p < 0 then -p else p in
      if p >= -small_bound && p <= small_bound && q <= small_bound then
        S { p; q }
      else B { num = Bigint.of_int p; den = Bigint.of_int q }
    end
  | _ ->
    if is_zero b then raise Division_by_zero
    else norm_big (Bigint.mul (num a) (den b)) (Bigint.mul (den a) (num b))

(* Swapping an S stays within the bound; swapping a B keeps at least one
   oversized part, so neither ever changes tier. *)
let inv = function
  | S { p; q } ->
    if p = 0 then raise Division_by_zero
    else if p > 0 then S { p = q; q = p }
    else S { p = -q; q = -p }
  | B { num; den } ->
    if Bigint.sign num < 0 then B { num = Bigint.neg den; den = Bigint.neg num }
    else B { num = den; den = num }

let floor_small p q = if p >= 0 then p / q else -((-p + q - 1) / q)
let ceil_small p q = if p >= 0 then (p + q - 1) / q else -(-p / q)

let floor = function
  | S { p; q } -> Bigint.of_int (floor_small p q)
  | B { num; den } ->
    (* Bigint.divmod is Euclidean (remainder >= 0), so its quotient is
       exactly the floor for any sign of the numerator. *)
    Bigint.div num den

let ceil = function
  | S { p; q } -> Bigint.of_int (ceil_small p q)
  | B { num; den } ->
    let q, r = Bigint.divmod num den in
    if Bigint.is_zero r then q else Bigint.add q Bigint.one

let floor_int = function
  | S { p; q } -> floor_small p q
  | B _ as t -> (
    match Bigint.to_int_opt (floor t) with
    | Some i -> i
    | None -> failwith "Rational.floor_int: out of int range")

let ceil_int = function
  | S { p; q } -> ceil_small p q
  | B _ as t -> (
    match Bigint.to_int_opt (ceil t) with
    | Some i -> i
    | None -> failwith "Rational.ceil_int: out of int range")

let to_int_opt = function
  | S { p; q } -> if q = 1 then Some p else None
  | B { num; den } ->
    if Bigint.equal den Bigint.one then Bigint.to_int_opt num else None

let clamp ~lo ~hi x =
  if compare x lo < 0 then lo else if compare x hi > 0 then hi else x

let in_unit_interval x = compare zero x <= 0 && compare x one <= 0

let to_float = function
  | S { p; q } -> float_of_int p /. float_of_int q
  | B { num; den } ->
    (* Convert via a scaled division, falling back to mantissa/exponent
       splitting. Precision here is best-effort: this function exists
       for reporting, never for decisions. *)
    let scale = Bigint.of_int 1_000_000_000 in
    (match Bigint.to_int_opt (Bigint.div (Bigint.mul num scale) den) with
    | Some s -> float_of_int s /. 1e9
    | None ->
      (* Both parts can exceed float range (a plain float_of_string
         quotient would be inf /. inf = nan even when the true ratio is
         modest, e.g. 10^400 / 10^390 = 1e10). Take each part's leading
         digits as a mantissa and track the dropped digits as a power of
         ten; overflow and underflow then come out as inf / 0 only when
         the ratio itself deserves it. *)
      let split s =
        let keep = Stdlib.min (String.length s) 15 in
        (float_of_string (String.sub s 0 keep), String.length s - keep)
      in
      let mn, en = split (Bigint.to_string (Bigint.abs num)) in
      let md, ed = split (Bigint.to_string den) in
      let magnitude = mn /. md *. (10.0 ** float_of_int (en - ed)) in
      if Bigint.sign num < 0 then -.magnitude else magnitude)

(* The one renderer: a small-tier value's digits go straight into the
   buffer, with no intermediate strings. *)
let rec add_digits buf n =
  if n >= 10 then add_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 + (n mod 10)))

let add_to_buffer buf = function
  | S { p; q } ->
    if p < 0 then Buffer.add_char buf '-';
    add_digits buf (Stdlib.abs p);
    if q <> 1 then begin
      Buffer.add_char buf '/';
      add_digits buf q
    end
  | B { num; den } ->
    Buffer.add_string buf (Bigint.to_string num);
    if not (Bigint.equal den Bigint.one) then begin
      Buffer.add_char buf '/';
      Buffer.add_string buf (Bigint.to_string den)
    end

let to_string t =
  let buf = Buffer.create 16 in
  add_to_buffer buf t;
  Buffer.contents buf

(* The bigint parse: every spelling the machine-int path below does not
   take, and the reference that path must agree with. *)
let of_string_big s =
  let s = String.trim s in
  if String.equal s "" || String.equal s "+" || String.equal s "-" then
    invalid_arg "Rational.of_string: empty or bare sign";
  match String.index_opt s '/' with
  | Some i ->
    let p = String.sub s 0 i
    and q = String.sub s (i + 1) (String.length s - i - 1) in
    make (Bigint.of_string (String.trim p)) (Bigint.of_string (String.trim q))
  | None -> (
    match String.index_opt s '.' with
    | None -> of_bigint (Bigint.of_string s)
    | Some i ->
      let int_part = String.sub s 0 i in
      let frac = String.sub s (i + 1) (String.length s - i - 1) in
      let digits = String.length frac in
      let sign_factor =
        if String.length int_part > 0 && Char.equal int_part.[0] '-' then
          minus_one
        else one
      in
      let int_val =
        if
          String.equal int_part "" || String.equal int_part "-"
          || String.equal int_part "+"
        then zero
        else of_bigint (Bigint.of_string int_part)
      in
      let frac_val =
        if digits = 0 then zero
        else
          make (Bigint.of_string frac)
            (Bigint.of_natural (Natural.pow (Natural.of_int 10) digits))
      in
      add int_val (mul sign_factor (abs frac_val)))

(* [String.trim]'s blanks, so both parses see the same token. *)
let is_blank = function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false

let rec digits_end s i j =
  if i < j && (match String.unsafe_get s i with '0' .. '9' -> true | _ -> false)
  then digits_end s (i + 1) j
  else i

let rec digits_value s i j acc =
  if i = j then acc
  else digits_value s (i + 1) j ((10 * acc) + Char.code (String.unsafe_get s i) - 48)

(* A part of the machine-int path: 1 to 18 digits, so its value is below
   10^18 < max_int. *)
let int_part a b = b > a && b - a <= 18

(* [-]digits[/digits] within blanks, each part [int_part], is read on
   machine ints and normalised by [norm_ints]: the same value, tier and
   exceptions as the bigint parse. Every other spelling -- '+', a sign
   on the denominator, decimals, blanks inside, longer parts, anything
   malformed -- goes to [of_string_big] unchanged. Only '0'..'9' count
   as digits: [int_of_string] would also take 0x1F, 0b1, 0o7 and
   1_000, which the bigint parse rejects. *)
let of_substring s pos len =
  if pos < 0 || len < 0 || pos > String.length s - len then
    invalid_arg "Rational.of_substring";
  let i = ref pos and j = ref (pos + len) in
  while !i < !j && is_blank (String.unsafe_get s !i) do incr i done;
  while !j > !i && is_blank (String.unsafe_get s (!j - 1)) do decr j done;
  let i = !i and j = !j in
  let a = if i < j && String.unsafe_get s i = '-' then i + 1 else i in
  let b = digits_end s a j in
  let d = if b < j && String.unsafe_get s b = '/' then digits_end s (b + 1) j else b in
  if int_part a b && d = j && (d = b || int_part (b + 1) d) then begin
    let p = digits_value s a b 0 in
    let p = if a > i then -p else p in
    if d = b then of_int p else norm_ints p (digits_value s (b + 1) d 0)
  end
  else of_string_big (String.sub s pos len)

let of_string s = of_substring s 0 (String.length s)

let pp fmt t = Format.pp_print_string fmt (to_string t)

let is_canonical = function
  | S { p; q } ->
    q > 0 && q <= small_bound
    && p >= -small_bound && p <= small_bound
    && (if p = 0 then q = 1 else Natural.gcd_int (Stdlib.abs p) q = 1)
  | B { num; den } ->
    Bigint.sign den > 0
    && (not (Bigint.is_zero num))
    && Natural.is_one (Bigint.gcd num den)
    && not (fits_small num den)

exception Over_bound

(* One lcm pass over the denominators, then one scaling pass; both stop
   at the first part past [bound], and every product is checked by a
   division before it is formed, so nothing here overflows. *)
let common_denominator ~bound rows =
  let int_part b =
    match Bigint.to_int_opt b with Some i -> i | None -> raise_notrace Over_bound
  in
  let den_of = function S { q; _ } -> q | B { den; _ } -> int_part den in
  let num_of = function S { p; _ } -> p | B { num; _ } -> int_part num in
  match
    let l =
      Array.fold_left
        (Array.fold_left (fun l v ->
             let q = den_of v in
             let f = q / Natural.gcd_int l q in
             if l > bound / f then raise_notrace Over_bound else l * f))
        1 rows
    in
    let scale v =
      let f = l / den_of v and p = num_of v in
      let cap = bound / f in
      if p > cap || p < -cap then raise_notrace Over_bound else p * f
    in
    (l, Array.map (Array.map scale) rows)
  with
  | r -> Some r
  | exception Over_bound -> None

let sum l = List.fold_left add zero l
let sum_array a = Array.fold_left add zero a

(* Operator aliases last, so the int operators above are Stdlib's. *)
let ( = ) = equal
let ( < ) a b = compare a b < 0
let ( <= ) a b = compare a b <= 0
let ( > ) a b = compare a b > 0
let ( >= ) a b = compare a b >= 0
let ( + ) = add
let ( - ) = sub
let ( * ) = mul
let ( / ) = div
