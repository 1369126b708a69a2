(* Non-allocating arithmetic on small-tier rational parts.

   The flat DP kernels (Opt_two, Opt_config) keep remainders as (p, q)
   int pairs in plain arrays instead of boxed [Rational.t] values. This
   module is the arithmetic for those pairs: every operation consumes
   canonical small-tier parts — exactly the invariant of [Rational]'s
   [S] constructor (q > 0, coprime, both parts within
   [Rational.small_bound], zero as 0/1) — and either writes a canonical
   small-tier result into a caller-owned [out] cell or returns [false],
   meaning the exact result leaves the small tier. On [false] the
   caller recomputes with boxed [Rational.t]; nothing here ever rounds.

   Results written on success are bit-for-bit the parts [Rational]
   itself would store for the same value, so a kernel can mix pair
   arithmetic with boxed spills freely: converting back and forth
   never changes a value's canonical spelling. The overflow analysis
   mirrors [Rational.add]/[sub]: cross products of small parts are
   below 2^62 each, so only their sum/difference needs a sign check. *)

type out = { mutable p : int; mutable q : int }

let out () = { p = 0; q = 1 }

let small_bound = Rational.small_bound

(* Bound-check and store a fraction already known canonical. *)
let store o p q =
  if p >= -small_bound && p <= small_bound && q <= small_bound then begin
    o.p <- p;
    o.q <- q;
    true
  end
  else false

(* Reduce t/den where every common factor of the two is known to
   divide [g] (the mpq_add argument below), so the gcd runs on the
   small [g] rather than on the cross-product-sized [t]. *)
let store_reduced o t den g =
  if t = 0 then begin
    o.p <- 0;
    o.q <- 1;
    true
  end
  else begin
    let e = Natural.gcd_int (abs t) g in
    store o (t / e) (den / e)
  end

(* GMP's mpq_add shape: with g = gcd(q1, q2), b1 = q1/g, b2 = q2/g and
   t = p1*b2 + p2*b1, every common factor of t and the common
   denominator q1*b2 divides g. (A prime of b2 divides q2 hence not p2,
   and not b1 — b1, b2 are coprime — so it misses t; symmetrically for
   b1; what remains of the denominator is g.) So when g = 1 the result
   is already canonical with no reduction gcd at all, and otherwise one
   gcd against the small g finishes the job — the gcds here run on
   denominator-sized operands, never on cross-product sums. Cross
   products of small parts fit 62 bits individually; only their
   sum/difference needs the sign check (as in [Rational.add]). *)
let add o p1 q1 p2 q2 =
  if q1 = q2 then
    (* Common denominator: two small numerators cannot overflow, and
       any common factor of their sum and q1 divides q1. *)
    store_reduced o (p1 + p2) q1 q1
  else begin
    let g = Natural.gcd_int q1 q2 in
    if g = 1 then begin
      let n1 = p1 * q2 and n2 = p2 * q1 in
      let s = n1 + n2 in
      if n1 >= 0 = (n2 >= 0) && s >= 0 <> (n1 >= 0) then false
      else store o s (q1 * q2)
    end
    else begin
      let b1 = q1 / g and b2 = q2 / g in
      let n1 = p1 * b2 and n2 = p2 * b1 in
      let t = n1 + n2 in
      if n1 >= 0 = (n2 >= 0) && t >= 0 <> (n1 >= 0) then false
      else store_reduced o t (b1 * q2) g
    end
  end

let sub o p1 q1 p2 q2 =
  if q1 = q2 then store_reduced o (p1 - p2) q1 q1
  else begin
    let g = Natural.gcd_int q1 q2 in
    if g = 1 then begin
      let n1 = p1 * q2 and n2 = p2 * q1 in
      let d = n1 - n2 in
      if n1 >= 0 <> (n2 >= 0) && d >= 0 <> (n1 >= 0) then false
      else store o d (q1 * q2)
    end
    else begin
      let b1 = q1 / g and b2 = q2 / g in
      let n1 = p1 * b2 and n2 = p2 * b1 in
      let d = n1 - n2 in
      if n1 >= 0 <> (n2 >= 0) && d >= 0 <> (n1 >= 0) then false
      else store_reduced o d (b1 * q2) g
    end
  end

(* p/q - 1 = (p - q)/q and 1 - p/q = (q - p)/q share the input's gcd
   (gcd(p ± q, q) = gcd(p, q) = 1), so the result is canonical without
   reducing; only the small-tier bound can fail, and only for inputs
   outside [0, 1] + [0, 1]-ish kernel ranges. *)
let sub_one o p q =
  let p' = p - q in
  if p' >= -small_bound && p' <= small_bound then begin
    o.p <- p';
    o.q <- (if p' = 0 then 1 else q);
    true
  end
  else false

let one_minus o p q =
  let p' = q - p in
  if p' >= -small_bound && p' <= small_bound then begin
    o.p <- p';
    o.q <- (if p' = 0 then 1 else q);
    true
  end
  else false

(* Equal denominators compare by numerator alone — exact for any q > 0,
   not just canonical parts, which lets the common-denominator DP mode
   (numerators over a fixed lcm) compare without forming products that
   could overflow. The int annotations keep the comparison monomorphic. *)
let compare p1 q1 p2 q2 =
  if q1 = q2 then Stdlib.compare (p1 : int) p2
  else Stdlib.compare (p1 * q2 : int) (p2 * q1)

let compare_one p q = Stdlib.compare (p : int) q

let to_rational p q = Rational.of_ints p q
