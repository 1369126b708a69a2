(** Structured campaign results: JSONL records and aggregate summaries.

    One {!record} per (instance × algorithm) item. [to_json] renders the
    full record (including [wall_ns]); [payload] omits the timing fields
    and is byte-stable — two runs of the same spec produce identical
    payloads at any domain-pool size, which {!payload_digest} turns into
    a one-line determinism fingerprint.

    The same record schema is reused by [crsched compare --json] for
    single-instance output (with [seed]/[granularity] = [None]). *)

type outcome =
  | Done
  | Timeout  (** a fuel-metered solve ran out of budget *)
  | Error of string  (** the item raised; the message is recorded *)
  | Not_applicable of string
      (** the capability record of the solver (e.g. opt-two on [m = 3])
          or of the exact baseline (sized jobs) rejected the instance;
          the reason is recorded. In the baseline case the algorithm's
          [makespan] is kept. *)

val outcome_label : outcome -> string

type record = {
  id : int;
  family : string;  (** generator family, or ["file"] for compare *)
  m : int;
  n : int;  (** jobs per processor ([n_max] for loaded instances) *)
  granularity : int option;
  seed : int option;
  digest : string;  (** MD5 of the canonical instance text *)
  algorithm : string;
  outcome : outcome;
  makespan : int option;  (** [None] when the algorithm itself failed *)
  baseline : string;  (** ["exact"] or ["lower-bound"] *)
  optimum : int option;  (** [None] when the baseline solve timed out *)
  ratio : float option;  (** makespan / optimum *)
  counters : Crs_algorithms.Registry.Counters.t option;
      (** the solver's work counters; [None] when no solve ran or the
          algorithm has none. Deterministic, so part of [payload]. *)
  wall_ns : int;
      (** time spent producing this record; excluded from [payload]. A
          seed's records share one instance and one baseline solve, so
          its first record also carries the instance's generation and
          the first record whose algorithm completes carries the
          baseline's solve (see {!Runner}). *)
}

val to_json : record -> string
(** Single-line JSON object, stable key order, timing included. *)

val payload : record -> string
(** Like {!to_json} without timing fields; byte-stable. *)

val jsonl : record array -> string
val payload_digest : record array -> string

type summary = {
  items : int;
  completed : int;
  timeouts : int;
  errors : int;
  not_applicable : int;
  mean_ratio : float option;
  worst : record option;
      (** highest-ratio completed item — retained so the offending
          instance can be regenerated from its seed and replayed *)
  histogram : (float * int) array;
      (** ratio counts per 0.1-wide bucket from 1.0; last bucket >= 2.0 *)
  total_wall_ns : int;  (** summed item time (CPU-work, not elapsed) *)
  digest : string;  (** {!payload_digest} of the records *)
}

val summarize : record array -> summary
val render_summary : summary -> string

val write_jsonl : string -> record array -> unit
(** Write records as JSON-lines, creating the parent directory. *)

val write_summary : string -> summary -> unit
