(** Exact rational numbers.

    Values are kept normalized: positive denominator and coprime
    numerator/denominator. This is the number type used throughout the
    CRSharing analysis layer — resource shares, remaining requirements and
    makespan bounds are all exact, so comparisons such as
    [sum of shares <= 1] are decided exactly (floats would break the
    NP-hardness gadget of Theorem 4 and the optimality arguments). *)

type t

(** {1 Constants} *)

val zero : t
val one : t
val two : t
val half : t
val minus_one : t

(** {1 Construction} *)

val make : Bigint.t -> Bigint.t -> t
(** [make num den] is the normalized fraction [num/den].
    @raise Division_by_zero if [den] is zero. *)

val of_bigint : Bigint.t -> t
val of_int : int -> t

val of_ints : int -> int -> t
(** [of_ints p q] is [p/q]. @raise Division_by_zero if [q = 0]. *)

val of_string : string -> t
(** Accepts ["p"], ["p/q"] and decimal notation ["1.25"], within blanks.
    [\[-\]digits\[/digits\]] with at most 18 digits a part is read on
    machine ints; every other spelling goes through the bigint parse.
    @raise Invalid_argument on a malformed spelling.
    @raise Division_by_zero on a zero denominator. *)

val of_substring : string -> int -> int -> t
(** [of_substring s pos len] is [of_string (String.sub s pos len)]
    without the copy when the machine-int path takes the token.
    @raise Invalid_argument also when the range is not within [s]. *)

(** {1 Deconstruction} *)

val num : t -> Bigint.t
val den : t -> Bigint.t
(** Always positive. *)

val to_string : t -> string

val add_to_buffer : Buffer.t -> t -> unit
(** Appends [to_string t] to the buffer; small-tier digits are written
    in place. *)

val pp : Format.formatter -> t -> unit

val to_float : t -> float
(** Nearest float; for reporting only. *)

val to_int_opt : t -> int option
(** [Some i] when the value is an integer fitting in [int]. *)

(** {1 Predicates and comparison} *)

val sign : t -> int
val is_zero : t -> bool
val is_one : t -> bool
val is_integer : t -> bool
val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int
val ( = ) : t -> t -> bool
val ( < ) : t -> t -> bool
val ( <= ) : t -> t -> bool
val ( > ) : t -> t -> bool
val ( >= ) : t -> t -> bool
val min : t -> t -> t
val max : t -> t -> t

(** {1 Arithmetic} *)

val neg : t -> t
val abs : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
(** @raise Division_by_zero on a zero divisor. *)

val inv : t -> t
(** @raise Division_by_zero on zero. *)

val ( + ) : t -> t -> t
val ( - ) : t -> t -> t
val ( * ) : t -> t -> t
val ( / ) : t -> t -> t

val sum : t list -> t
val sum_array : t array -> t

(** {1 Rounding} *)

val floor : t -> Bigint.t
val ceil : t -> Bigint.t

val floor_int : t -> int
(** @raise Failure if out of [int] range. *)

val ceil_int : t -> int
(** @raise Failure if out of [int] range. *)

(** {1 Clamping helpers for resource shares} *)

val clamp : lo:t -> hi:t -> t -> t
val in_unit_interval : t -> bool
(** [0 <= x <= 1]. *)

(** {1 Common denominators} *)

val common_denominator : bound:int -> t array array -> (int * int array array) option
(** [common_denominator ~bound rows] is [Some (l, nums)] when the lcm
    [l] of every value's denominator is at most [bound] and every value
    [v] scales to an int [nums.(i).(k) = v * l] of magnitude at most
    [bound]; [v] is then exactly [nums.(i).(k) / l]. Otherwise, or when
    a part does not fit an int, [None]. [bound] is at least 1.

    This is the one remainder-tier decision of the exact DP kernels,
    made once per solve on the requirement rows with
    [bound = max_int / m]: requirements lie in [\[0, 1\]], so their
    numerators are at most [l], and a sum of [m] remainders stays
    within [m l <= max_int]. On [None] the kernels keep their
    remainders as boxed [t] values. *)

(** {1 Internals exposed for testing and benchmarking} *)

val small_bound : int
(** Largest numerator magnitude / denominator the immediate small tier
    holds; values reduce into the small tier whenever both parts fit. *)

val is_small : t -> bool
(** The value is currently held in the immediate (native-int) tier. *)

val is_canonical : t -> bool
(** Representation invariant: positive denominator, coprime parts, zero
    as 0/1, and the small tier used whenever the value fits it. *)
