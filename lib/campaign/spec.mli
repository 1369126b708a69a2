(** Campaign specification: generator family × seed range × algorithm
    list, expanded into (instance × algorithm) items. {!Runner} evaluates
    the items of one seed together, as one task.

    Seeding discipline: the instance for seed [s] is generated from
    [Random.State.make [| s |]] — the same as [crsched gen --seed s] —
    so every item is reproducible in isolation and identical at any
    domain-pool size. *)

type family = Uniform | Heavy_tailed | Balanced

val family_to_string : family -> string
val family_of_string : string -> family option

(** What "optimum" means in the report: the exact solver (fuel-metered,
    exponential in general) or the cheap certified lower bound. *)
type baseline = Exact | Lower_bound

val baseline_to_string : baseline -> string
val baseline_of_string : string -> baseline option

type t = {
  family : family;
  m : int;  (** processors per instance *)
  n : int;  (** jobs per processor *)
  granularity : int;  (** requirement grid 1/g *)
  seed_lo : int;
  seed_hi : int;  (** inclusive; must be >= [seed_lo] (see {!validate}) *)
  algorithms : string list;  (** names from {!Crs_algorithms.Registry} *)
  baseline : baseline;
  fuel : int option;  (** per-solve tick budget; [None] = unlimited *)
}

val default : t
(** uniform, m=3, n=3, g=10, seeds 1..50, greedy-balance vs exact,
    fuel 2e6. *)

val validate : t -> (t, string) result
(** Checks ranges — including that the seed range is non-empty
    ([seed_lo <= seed_hi]) — and that every algorithm name is registered
    in {!Crs_algorithms.Registry} (the error lists the valid names). *)

type item = { id : int; seed : int; algorithm : string }

val seed_count : t -> int

val expand : t -> item array
(** All (seed × algorithm) pairs, ids [0..count-1], seed-major so the
    items of one seed are adjacent. An empty seed range yields [[||]]. *)

val instance : t -> seed:int -> Crs_core.Instance.t
(** Deterministic instance for a seed (see the seeding discipline). *)

val describe : t -> string
(** One-line human summary. *)
