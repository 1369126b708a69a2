(** Thin policy layer over {!Registry}: answers "what is the optimum of
    this instance" by choosing a registered exact solver, and computes
    approximation ratios. All dispatch, capability checks and
    instrumentation live in {!Registry}. *)

val optimal_makespan : Crs_core.Instance.t -> int
(** Exact optimum via the registry's ["optimal"] solver ({!Opt_two} for
    [m = 2], {!Opt_config} otherwise).
    @raise Invalid_argument on non-unit sizes. *)

val ratio : algorithm:(Crs_core.Instance.t -> int) -> Crs_core.Instance.t -> Crs_num.Rational.t
(** [algorithm makespan / optimal makespan]. When the optimum is 0 the
    ratio is 1 if the algorithm also took 0 steps;
    @raise Invalid_argument if it took longer (the ratio is undefined —
    the old behaviour silently reported 1). *)

val certified_lower_bound : Crs_core.Instance.t -> int
(** Cheap lower bound without exact solving: runs GreedyBalance, builds
    its hypergraph and takes the strongest of Observation 1, job count,
    Lemma 5, Lemma 6. Valid because GreedyBalance schedules are
    non-wasting and balanced. *)

val ratio_upper_bound : Crs_core.Instance.t -> Crs_num.Rational.t
(** GreedyBalance makespan divided by {!certified_lower_bound}: a
    certified upper bound on its true approximation ratio on this
    instance, computable without exact solving. *)
