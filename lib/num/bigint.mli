(** Arbitrary-precision signed integers, built on {!Natural}.

    Canonical representation: zero always has sign [0]; non-zero values
    carry sign [-1] or [+1] and a non-zero magnitude. *)

type t

(** {1 Constants and conversions} *)

val zero : t
val one : t
val minus_one : t

val of_int : int -> t
val to_int_opt : t -> int option
val to_int_exn : t -> int

val of_natural : Natural.t -> t

val of_string : string -> t
(** Decimal, with optional leading ['-'] or ['+']. *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit

(** {1 Inspection} *)

val sign : t -> int
(** [-1], [0] or [+1]. *)

val abs : t -> t
val abs_natural : t -> Natural.t
val is_zero : t -> bool

(** {1 Comparison} *)

val equal : t -> t -> bool
val compare : t -> t -> int

val compare_int : t -> int -> int
(** [compare_int t m] orders [t] against a machine int (either sign,
    including [min_int]) without allocating. *)

val hash : t -> int
val min : t -> t -> t
val max : t -> t -> t

(** {1 Arithmetic} *)

val neg : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t

val divmod : t -> t -> t * t
(** Euclidean division: [divmod a b = (q, r)] with [a = q*b + r] and
    [0 <= r < |b|]. @raise Division_by_zero if [b] is zero. *)

val div : t -> t -> t
val rem : t -> t -> t

val gcd : t -> t -> Natural.t
(** Non-negative gcd of magnitudes. *)

val pow : t -> int -> t
(** @raise Invalid_argument if the exponent is negative. *)
