(** Load generator for the serve daemon.

    Drives one connection with a workload of request lines under a
    chosen arrival process and measures per-request latency from the
    response stream (responses come back in request order, so matching
    is positional). Arrival shapes follow the dynamic-workload framing
    of "Dynamic Fractional Resource Scheduling vs. Batch Scheduling":

    - {!Closed_loop} — send, wait, send: one request in flight, the
      classic think-time-zero closed system;
    - {!Poisson} — open loop, exponential inter-arrival gaps at a given
      rate, sent regardless of response progress;
    - {!Bursty} — open loop, requests arrive in back-to-back groups of
      [burst] with exponential gaps between groups — the shape that
      actually exercises batching and admission.

    Open-loop schedules are drawn from a caller-seeded PRNG, so a bench
    run is reproducible. *)

module Client = Frontend.Lines
(** A load-generator connection is a plain {!Frontend.Lines}: the same
    line framing the servers read with. *)

type arrival =
  | Closed_loop
  | Poisson of { rate : float }  (** requests per second *)
  | Bursty of { burst : int; rate : float }
      (** [burst]-sized groups at [rate] groups per second *)

type stats = {
  sent : int;
  received : int;
  duration_ns : int64;  (** first send to last response *)
  throughput_rps : float;
  p50_ms : float;
  p99_ms : float;
  max_ms : float;
  latencies_ms : float array;
      (** every per-request latency sample, sorted ascending — what
          {!run_multi} merges so aggregate percentiles stay exact *)
}

val run :
  ?seed:int -> Client.t -> arrival:arrival -> requests:string list -> stats
(** Send every request under the arrival process and collect exactly one
    response per request. [seed] (default 1) feeds the open-loop
    schedule. *)

val run_multi :
  ?seed:int ->
  Client.t array ->
  arrival:arrival ->
  requests:string list ->
  stats
(** Multi-connection mode: split the workload round-robin across the
    clients and drive each on its own thread under [arrival], with
    per-connection open-loop schedules derived deterministically from
    [seed] and the connection index. The aggregate sums sent/received,
    merges all latency samples (percentiles are over the full
    population) and clocks throughput on the slowest connection's
    span.
    @raise Invalid_argument on an empty client array. *)

val percentile : float array -> float -> float
(** [percentile sorted p] with [p] in [0,1]; nearest-rank on a sorted
    array, 0 when empty. Exposed for the bench report. *)
