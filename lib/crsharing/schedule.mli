(** A schedule for the CRSharing problem: the resource assignment
    functions [R_i : N → [0,1]] truncated to their support (paper,
    Section 3.1). Step indices are 0-based internally; the paper's time
    step [t] (1-based) is row [t-1]. *)

type t

val of_rows : Crs_num.Rational.t array array -> t
(** [of_rows rows] where [rows.(t).(i)] is the share of processor [i]
    during step [t]. All rows must have the same width.
    @raise Invalid_argument on ragged rows or an empty matrix with no
    width information. *)

val empty : m:int -> t
(** The zero-step schedule for [m] processors. *)

val horizon : t -> int
(** Number of time steps the schedule describes. *)

val m : t -> int

val share : t -> step:int -> proc:int -> Crs_num.Rational.t
(** Share assigned to [proc] during [step]; zero beyond the horizon. *)

val row : t -> int -> Crs_num.Rational.t array
(** Fresh copy of one step's assignment. *)

val rows : t -> Crs_num.Rational.t array array
(** Fresh copy of the whole assignment matrix. *)

val unsafe_rows : t -> Crs_num.Rational.t array array
(** The assignment matrix itself, NOT a copy: [rows.(step).(proc)].
    Strictly read-only — mutating it corrupts the schedule. For hot
    read paths (the certifier sweeps whole schedules) where the
    per-cell bounds checks and copies of {!share}/{!rows} dominate. *)

val check_feasible : t -> (unit, string) result
(** Every share in [0,1] and every step total at most 1. Errors name
    the offending step and processor: an out-of-range share reports its
    value, an overused step reports the total and the processor holding
    the largest share. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

(** {1 Serialization}

    Text format: one line per time step, shares separated by spaces,
    rationals as [p/q] or decimals; ['#'] starts a comment line. *)

val to_string : t -> string
val of_string : string -> (t, string) result
val load : string -> (t, string) result
val save : string -> t -> unit
