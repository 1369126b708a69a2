(** Arbitrary-precision natural numbers (non-negative integers).

    Numbers are stored little-endian in arrays of "limbs", each limb
    holding 30 bits. The representation is canonical: no leading
    zero limb, and zero is the empty array. All operations are purely
    functional.

    This module is the base layer of the exact-arithmetic substrate
    ([lib/num]); see {!Bigint} for signed integers and {!Rational} for
    normalized fractions. *)

type t

(** {1 Constants and conversions} *)

val zero : t
val one : t
val two : t

val of_int : int -> t
(** [of_int n] converts a non-negative OCaml integer.
    @raise Invalid_argument if [n < 0]. *)

val to_int_opt : t -> int option
(** [to_int_opt n] is [Some i] when [n] fits in an OCaml [int]. *)

val to_int_exn : t -> int
(** @raise Failure when the value does not fit in an OCaml [int]. *)

val of_string : string -> t
(** Parse a decimal string of digits.
    @raise Invalid_argument on the empty string or non-digit input. *)

val to_string : t -> string
(** Decimal representation, no leading zeros (["0"] for zero). *)

val pp : Format.formatter -> t -> unit

(** {1 Predicates and comparison} *)

val is_zero : t -> bool
val is_one : t -> bool
val equal : t -> t -> bool
val compare : t -> t -> int

val compare_int : t -> int -> int
(** [compare_int n m] orders [n] against a non-negative machine int
    without allocating. @raise Invalid_argument if [m < 0]. *)

val hash : t -> int

(** {1 Arithmetic} *)

val add : t -> t -> t

val sub : t -> t -> t
(** [sub a b] computes [a - b].
    @raise Invalid_argument if [b > a]. *)

val mul : t -> t -> t

val divmod : t -> t -> t * t
(** [divmod a b] is [(q, r)] with [a = q*b + r] and [0 <= r < b].
    @raise Division_by_zero if [b] is zero. *)

val div : t -> t -> t
val rem : t -> t -> t

val gcd : t -> t -> t
(** Greatest common divisor; [gcd 0 n = n]. *)

val gcd_int : int -> int -> int
(** Binary (Stein) gcd on non-negative machine ints; [gcd_int 0 n = n].
    Division-free, used by the {!Rational} small tier.
    @raise Invalid_argument on negative arguments. *)

val lcm : t -> t -> t

val pow : t -> int -> t
(** [pow b e] for [e >= 0]. @raise Invalid_argument if [e < 0]. *)

val shift_left : t -> int -> t
(** Multiply by [2^k]. *)

val shift_right : t -> int -> t
(** Divide by [2^k], truncating. *)

val min : t -> t -> t
val max : t -> t -> t

(** {1 Internals exposed for testing} *)

val num_limbs : t -> int
val is_canonical : t -> bool
(** Representation invariant: no leading zero limb, all limbs in range. *)
