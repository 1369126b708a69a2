(** Non-allocating arithmetic on small-tier rational parts.

    Operates on canonical (numerator, denominator) int pairs obeying
    the [Rational] small-tier invariant: denominator positive, parts
    coprime, both within [Rational.small_bound], zero spelled 0/1. The
    flat DP kernels keep remainders as such pairs in plain int arrays;
    this module gives them exact add/sub/compare without touching the
    allocator.

    Mutating operations write into a caller-owned {!out} cell and
    return [true], or return [false] without a meaningful result when
    the exact value leaves the small tier (the caller then redoes the
    operation on boxed {!Rational.t} values — the "bigint spill" path).
    Successful results are exactly the parts [Rational] would store
    for the same value, so pairs and boxed values interconvert without
    changing any canonical spelling. *)

type out = { mutable p : int; mutable q : int }
(** Scratch result cell; allocate once per kernel with {!out}. *)

val out : unit -> out

val to_rational : int -> int -> Rational.t
(** Box a pair. Accepts any [p/q] with [q <> 0]; pays a gcd, so keep
    it off per-cell hot paths. *)

val add : out -> int -> int -> int -> int -> bool
(** [add o p1 q1 p2 q2] writes [p1/q1 + p2/q2] into [o] when the
    canonical result fits the small tier. *)

val sub : out -> int -> int -> int -> int -> bool

val sub_one : out -> int -> int -> bool
(** [sub_one o p q] is [p/q - 1]; no gcd needed (the input's
    reduction carries over). Fails only when [p - q] exceeds the
    tier bound, impossible for [p >= 0]. *)

val one_minus : out -> int -> int -> bool
(** [one_minus o p q] is [1 - p/q]; same reduction-free argument. *)

val compare : int -> int -> int -> int -> int
(** [compare p1 q1 p2 q2] orders [p1/q1] against [p2/q2] by cross
    products; small parts never overflow. *)

val compare_one : int -> int -> int
(** [compare_one p q] orders [p/q] against 1. *)
