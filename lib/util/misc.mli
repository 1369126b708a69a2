(** Small array/list helpers shared across the library. *)

val array_sum_int : int array -> int
val array_max_int : int array -> int
(** @raise Invalid_argument on an empty array. *)

val array_argmax : compare:('a -> 'a -> int) -> 'a array -> int
(** Index of the maximal element (first on ties).
    @raise Invalid_argument on an empty array. *)

val array_argmin : compare:('a -> 'a -> int) -> 'a array -> int

val range : int -> int list
(** [range n] is [[0; 1; …; n-1]]. *)

val take : int -> 'a list -> 'a list
val drop : int -> 'a list -> 'a list

val string_repeat : string -> int -> string

val split_on_string : sep:string -> string -> string list
(** Split on a multi-character separator (no regexes). *)

val float_mean : float list -> float
(** 0.0 on the empty list. *)
