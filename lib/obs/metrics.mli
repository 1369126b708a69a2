(** Process-global metrics registry: typed counters, gauges and
    log-scale histograms registered by name.

    Like {!Trace}, recording is off by default and every update checks a
    single [Atomic.t] flag first, so instrumented code pays one load
    when metrics are disabled. Registration ({!counter} / {!gauge} /
    {!histogram}) is idempotent — the same name returns the same metric
    — and mutex-protected; updates are lock-free ([Atomic]) and safe
    under the campaign [Pool].

    A histogram is a named {!Hist.t} (64 log2 buckets) behind the
    same flag: DP states per instance, memo probes, executor queue
    depths. Code that must count whether or not metrics are on (the
    serve tier's [stats] latency) uses {!Hist} directly.

    Every name registered here has a reader: [crsched campaign
    --metrics] and [crsched trace solve] print the snapshot, and the
    tests and benches enable the registry around what they measure.
    A number that is only ever read through a [stats] response is kept
    once, as an always-on atomic beside that response, not mirrored
    here.

    {!snapshot} serializes everything in the same stable-JSON style as
    campaign reports (sorted names, fixed key order, [%.6f] floats), so
    snapshots diff cleanly across runs. *)

type counter
type gauge
type histogram

val enabled : unit -> bool
val set_enabled : bool -> unit

(** {2 Registration (idempotent by name)} *)

val counter : string -> counter
val gauge : string -> gauge
val histogram : string -> histogram

(** {2 Updates (no-ops while disabled)} *)

val add : counter -> int -> unit
val incr : counter -> unit
val set : gauge -> float -> unit
val observe : histogram -> int -> unit

(** {2 Reading} *)

val counter_value : counter -> int
val gauge_value : gauge -> float

val snapshot : unit -> string
(** Stable JSON:
    [{"schema":"crs-metrics/1","counters":{..},"gauges":{..},"histograms":{..}}]
    with names sorted within each section; histogram entries carry
    [count], [sum] and the non-empty [buckets] as [{"lo","count"}]
    pairs. *)

val reset : unit -> unit
(** Zero all values. Registrations persist. *)
