(** A lock-free log2 histogram over integer observations.

    64 buckets: bucket 0 holds values [<= 0], bucket [k >= 1] holds
    [2^(k-1) <= v < 2^k]. That gives useful shape for quantities
    spanning orders of magnitude (request latency in microseconds, DP
    states per instance, queue depths) at a fixed footprint. Updates
    are [Atomic] and safe from any domain or thread; reads taken while
    others observe are each consistent but not a joint snapshot.

    {!Metrics.histogram} is a named, flag-gated handle on one of these;
    the serve tier's per-kind latency histograms use it directly,
    always on. *)

type t

val create : unit -> t
val observe : t -> int -> unit

val count : t -> int
val sum : t -> int

val max : t -> int
(** Largest observation, 0 on an empty histogram or when every
    observation was [<= 0]. *)

val quantile_upper : t -> float -> int
(** [quantile_upper t q] is the upper edge of the bucket holding the
    nearest-rank [q]-quantile observation: 0 for bucket 0, [2^k] for
    bucket [k]; 0 on an empty histogram. Coarse (a power of two) but
    monotone in [q], which is what a p99 regression gate needs. *)

val buckets : t -> (int * int) list
(** The non-empty buckets, ascending, as (lower edge, count): lower
    edge 0 for bucket 0, [2^(k-1)] for bucket [k]. *)

val reset : t -> unit
