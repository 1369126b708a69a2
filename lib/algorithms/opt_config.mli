(** OptResAssignment2: exact algorithm for any fixed number of processors
    and unit-size jobs (paper, Section 7, Algorithm 2).

    Layered breadth-first enumeration of configurations
    [(t, j_1..j_m, v_1..v_m)] — jobs completed per processor and remaining
    requirement of each active job. Successors follow Lemma 1's
    normal form: every step finishes a non-empty set [F] of active jobs
    (total cost at most 1) and invests any leftover in at most one further
    active job (progressive), wasting nothing that could be used
    (non-wasting). Dominated configurations are discarded layer by layer
    (Lemma 4): [γ] dominates [γ'] when, per processor, [γ] has either
    strictly more jobs done or the same job with no more remaining work.

    Polynomial for fixed [m] (Theorem 6); the practical cost grows quickly
    with [m], which the ablation bench quantifies (pruning on/off). *)

type stats = {
  layers : int list;  (** surviving configurations per time layer *)
  generated : int;  (** configurations generated before pruning *)
  comparisons : int;
      (** survivor-versus-candidate comparisons the domination filter
          made (binary-search probes, staircase compares, group and
          member checks; the sort is not counted) *)
}

type solution = {
  makespan : int;
  schedule : Crs_core.Schedule.t;
  stats : stats;
}

val solve : ?prune:bool -> Crs_core.Instance.t -> solution
(** [prune] defaults to [true]; [false] disables domination pruning (for
    the ablation bench) but keeps exact-duplicate merging.
    @raise Invalid_argument on non-unit job sizes. *)

val makespan : ?prune:bool -> Crs_core.Instance.t -> int
