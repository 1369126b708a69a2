(** Random CRSharing instance generators.

    All generators are deterministic given the [Random.State.t] and
    produce exact rational requirements (denominators bounded by
    [granularity]) so exact solvers stay fast. *)

type spec = {
  m : int;  (** processors *)
  jobs_min : int;
  jobs_max : int;  (** per-processor job count range (inclusive) *)
  granularity : int;  (** requirements are multiples of 1/granularity *)
  allow_zero : bool;
      (** permit zero requirements; default generators exclude them
          because zero-requirement jobs complete without resource, making
          the literal Definition 5 (balanced) unattainable (see
          EXPERIMENTS.md, edge case Z1) *)
}

val default_spec : spec
(** 3 processors, 1-5 jobs, granularity 20, no zeros. *)

val instance : ?spec:spec -> Random.State.t -> Crs_core.Instance.t
(** Uniform requirements in (0,1] (or [0,1] with [allow_zero]). *)

val heavy_tailed : ?spec:spec -> Random.State.t -> Crs_core.Instance.t
(** Mix of many light jobs and a few near-saturating ones — the
    I/O-intensive many-core picture of the paper's introduction. *)

val balanced_load : ?spec:spec -> Random.State.t -> Crs_core.Instance.t
(** Every step's "column" sums close to 1: instances where near-perfect
    packings exist and greedy choices matter. *)

val equal_rows : m:int -> n:int -> granularity:int -> Random.State.t -> Crs_core.Instance.t
(** All processors have exactly [n] jobs (random requirements); the shape
    assumed in Lemma 6 intuition and the Theorem 8 family. *)

val sized_jobs :
  m:int -> n:int -> granularity:int -> max_size:int -> Random.State.t -> Crs_core.Instance.t
(** Arbitrary-size jobs (sizes uniform in [1, max_size], possibly
    fractional): exercises the general model of Section 3.1. *)
