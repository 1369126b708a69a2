(** Campaign execution: evaluate a {!Spec.t} seed by seed, sequentially
    or on the {!Crs_exec.Exec} work-stealing executor.

    The unit of work is a seed: its task regenerates the instance and its
    digest once and evaluates every algorithm of the spec on it, in spec
    order, yielding that seed's records. The baseline (exact or lower
    bound) depends on the instance alone, so the task solves it at most
    once, on the first algorithm that completes, and keeps the result,
    an error included, for the seed's later records.

    Determinism contract: record results (minus timing) depend only on
    the spec — instances are regenerated from their seed inside the
    task, timeouts are fuel-based (work-metered, not wall-clock), and
    tasks share no mutable state — so [run ~domains:1] and
    [run ~domains:k] produce identical {!Report.payload}s. They are also
    the payloads of evaluating every item on its own, baseline included.

    A record's [wall_ns] is the time spent producing it: the first
    record of a seed carries the instance's generation and digest, and
    the first record whose algorithm completes carries the baseline's
    solve. *)

val default_names : string list
(** Default set for comparison tables: every policy-backed algorithm
    plus ["optimal"], in registry order. *)

val run_item : Spec.t -> Spec.item -> Report.record
(** Evaluate one item, the one-algorithm case of a seed's task:
    regenerate the instance from its seed, then solve the algorithm and
    the baseline through {!Crs_algorithms.Registry.run}, each under the
    spec's fuel budget. A capability rejection records
    [Not_applicable], an exhausted budget [Timeout], any other exception
    (or an unknown algorithm name) [Error]. Never raises. The record
    carries the solver's {!Crs_algorithms.Registry.Counters.t} when the
    algorithm's solve completed. *)

val run : ?domains:int -> Spec.t -> Report.record array
(** Run the whole campaign, one {!map_seeds} task per seed; records are
    in item order ({!Spec.expand}'s ids) regardless of the pool size.
    @raise Invalid_argument when {!Spec.validate} rejects the spec. *)

val map_seeds : ?domains:int -> Spec.t -> (int -> 'a) -> 'a array
(** [f] applied to every seed of the spec's range, results in seed
    order. [domains <= 1] (default) runs in the calling domain; larger
    values run {!Crs_exec.Exec.map} in slices of
    [seeds / (domains * 8)] seeds (at least one). The one seed fan-out
    of campaigns and fuzz sweeps. *)

val compare_records :
  ?names:string list ->
  ?baseline:Spec.baseline ->
  ?fuel:int ->
  family:string ->
  Crs_core.Instance.t ->
  Report.record list
(** Evaluate the named algorithms (default: {!default_names}) on one
    concrete instance, yielding campaign-schema records with ids from 0 —
    the backend of [crsched compare --json]. The same evaluation as a
    seed's task: one baseline solve shared by every record. [family]
    labels the records (e.g. ["file"]). *)
