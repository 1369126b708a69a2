(** Independent, exact-arithmetic schedule certifier.

    [Execution] is the reference semantics used by every solver in the
    repo; if it is wrong, solvers and their tests are wrong together.
    This module re-derives job progress [min(R_i(t)/r_ij, 1)] from a
    witness schedule alone, sharing nothing with [Execution] beyond the
    {!Crs_core.Schedule} and {!Crs_core.Instance} types: it checks
    feasibility itself and walks each processor's job sequence with its
    own loop (processor-major, not step-major), so a bookkeeping bug in
    the engine cannot silently certify its own output.

    All arithmetic is exact ({!Crs_num.Rational}). *)

type verdict = {
  completion : int array array;
      (** [completion.(i).(j)] is the 1-based step in which processor
          [i]'s [j]-th job finishes. *)
  makespan : int;  (** latest completion step; [0] for a jobless instance *)
}

val feasible : Crs_core.Schedule.t -> (unit, string) result
(** Independent re-check of Definition 1: every share in [[0,1]] and
    every step total at most [1]. The error names the offending step,
    processor and value. *)

val derive : Crs_core.Instance.t -> Crs_core.Schedule.t -> (verdict, string) result
(** Re-derive completion times of every job under the witness schedule.
    Errors: width mismatch, infeasible schedule, a job that the horizon
    leaves unfinished (named, with its remaining volume), or a
    non-increasing completion order along a processor. *)

val check :
  Crs_core.Instance.t ->
  Crs_core.Schedule.t ->
  claimed:int ->
  (verdict, string) result
(** {!derive} plus the makespan claim: the witness must achieve exactly
    [claimed]. This is the full certificate the serve tier applies to a
    ["certify":true] solve. *)
