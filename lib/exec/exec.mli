(** Work-stealing task executor on OCaml 5 domains.

    Replaces the central mutex/condition pool: each worker owns a
    Chase–Lev {!Deque} (lock-free push/pop/steal), external submissions
    land in a small injector queue that workers drain in batches into
    their own deque, and idle workers steal from randomized victims with
    exponential backoff before parking on a condition variable. Locks
    are confined to the cold paths — external submission, parking, and
    batch completion — so the task hot path is atomics only.

    {2 Determinism}

    Task {i execution order} is scheduling-dependent, but the executor
    is used through {!map}, where every task carries its input index
    (its sequence id) and writes a dedicated slot of a pre-sized result
    array. Result order therefore equals input order at any worker
    count, which is what keeps campaign report payload digests and
    [Trace.signature] byte-identical whatever the pool size.

    {2 Exception containment}

    A raising task never kills its worker: its {!Batch} records the
    first exception (atomically — first writer wins) and returns it from
    {!Batch.await}; the batch's remaining tasks still run.

    {2 Observability}

    When {!Crs_obs.Metrics} is enabled the executor records
    [exec.push] / [exec.steal] / [exec.park] counters and a per-worker
    queue-depth log2 histogram ([exec.queue_depth.d<k>]); when disabled
    these cost one atomic load each. Independent of metrics, cheap
    always-on atomic counters feed {!stats} so a long-running daemon can
    report saturation without enabling the metrics subsystem. *)

type t

(** Saturation snapshot, cheap enough to build per stats request. *)
type stats = {
  workers : int;  (** worker domain count *)
  queued : int;
      (** tasks waiting to run (injector + deques), excluding running
          ones — deterministically 0 right after a batch completes *)
  injected : int;  (** external submissions not yet picked up by a worker *)
  depths : int array;  (** per-worker deque occupancy snapshot *)
  pushes : int;  (** tasks pushed (external + worker-local), lifetime *)
  steals : int;  (** successful steals, lifetime *)
  parks : int;  (** times a worker parked, lifetime *)
}

val create : domains:int -> t
(** Spawn [domains] worker domains (>= 1).
    @raise Invalid_argument when [domains < 1]. *)

val size : t -> int
(** Number of worker domains. *)

val pending : t -> int
(** Tasks submitted and not yet finished — the backlog admission
    control sheds against. *)

(** Batches are the one way to submit work and wait for it. A batch
    tracks only its own tasks — its own pending counter and
    first-failure slot — so overlapping batches on the same executor
    (the multi-connection serve frontend: one reader per connection,
    each processing its own batches) neither wait on each other's tasks
    nor steal each other's exceptions. Batch tasks still count toward
    the executor's {!pending} (admission budgets keep working) and are
    drained by {!shutdown}. *)
module Batch : sig
  type exec := t
  type t

  val create : exec -> t
  (** A fresh handle; cheap enough to build per request batch. *)

  val submit : t -> (unit -> unit) -> unit
  (** Enqueue a task charged to this batch. From outside the executor
      this goes through the injector queue; from inside a task it
      pushes onto the running worker's own deque (lock-free), so tasks
      may submit further tasks. Submitting should not race
      {!shutdown}: a racing submit either raises or has its task
      executed on the shutting-down thread during the drain — it is
      never silently dropped.
      @raise Invalid_argument after the executor's {!shutdown}. *)

  val await : t -> exn option
  (** Block until every task submitted to {i this} batch has finished.
      Returns this batch's first task exception ([None] when all
      succeeded) and clears it, so the handle could be reused — though
      one handle per batch is the intended shape. *)
end

val stats : t -> stats

val shutdown : t -> unit
(** Let the workers drain all remaining work, then join them. Any task
    a racing {!Batch.submit} managed to land after the workers exited is
    run on the calling thread before returning, so [pending] always
    reaches zero. Idempotent. *)

val with_exec : domains:int -> (t -> 'a) -> 'a
(** [create], run, then {!shutdown} — even on exceptions. *)

val map : ?chunk:int -> domains:int -> ('a -> 'b) -> 'a array -> 'b array
(** One-shot order-preserving parallel map on a fresh executor of
    [domains] workers ({!with_exec}): [map ~domains f a] equals
    [Array.map f a] element-for-element whatever the worker count,
    chunking or steal schedule — each task writes the slots of its own
    contiguous input slice and nothing else. [chunk] (default 1) input
    items ride per task. Re-raises the first task exception after the
    batch settles (items sharing a chunk with a raising item may be
    skipped).
    @raise Invalid_argument when [chunk < 1]. *)
