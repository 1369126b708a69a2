(** Admission control: a bounded queue in front of the shared
    work-stealing executor.

    The daemon admits at most [queue] work requests {i in flight};
    requests beyond that are {i shed} — answered immediately with a
    cheap [overloaded] response instead of queueing unboundedly. The
    budget is charged against the executor's live backlog
    ({!Crs_exec.Exec.pending}), so concurrent or carried-over work
    counts; on a quiet executor the backlog is zero at batch start and
    shedding is deterministic at the batch level — the first [queue]
    work items of a batch are admitted in arrival order, the rest shed,
    so tests can assert exact shed counts. Under concurrent connections
    every reader's batches share this one budget: {!map} is
    thread-safe (each call waits on a private {!Crs_exec.Exec.Batch}
    handle, never on other callers' tasks).

    The executor ({!Crs_exec.Exec}) is created once and reused across
    batches; {!drain} joins the workers on shutdown. *)

type t

val create : queue:int -> workers:int -> t
(** @raise Invalid_argument when [queue < 1] or [workers < 1]. *)

val workers : t -> int
val queue_capacity : t -> int

val executor : t -> Crs_exec.Exec.t
(** The shared executor, exposed so the server's [stats] response can
    report saturation (queue depths, steals, parks). *)

val depth : t -> int
(** Current executor backlog (submitted, not yet finished) — what the
    next batch's admission budget is charged against. *)

val map : t -> f:('a -> 'b) -> shed:('a -> 'b) -> 'a array -> 'b array
(** Order-preserving map over one batch: admitted elements are computed
    as [f x] on the executor, the rest as [shed x] inline.
    Re-raises the first exception any [f] task raised, after the batch
    settles ([f] callers are expected to catch their own — the server's
    work function never raises). *)

val drain : t -> unit
(** Shut the executor down (idempotent). Subsequent {!map} calls
    raise. *)
