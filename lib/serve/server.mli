(** The serve daemon: batched request processing behind the shared
    connection {!Frontend}.

    One server value owns the worker pool ({!Admission}), the
    canonicalizing memo cache ({!Canon.Cache}), the running stats
    counters and the per-request-kind latency histograms. Each of those
    numbers is kept once, always on, and read through {!stats_payload};
    none is mirrored into {!Crs_obs.Metrics}. Its
    per-connection session answers each batch of lines the frontend
    reads with {!process_batch}: work requests (solve, campaign) go
    through admission — shared across all live connections, the
    executor's live backlog charges the budget, excess is answered
    [overloaded] — and control requests (hello, stats, shutdown,
    malformed lines) are answered inline after the batch's work
    settles, so a [stats] request observes the solves that travelled
    with it. Each reader processes its own batches in turn, waiting
    only on its own {!Crs_exec.Exec.Batch} handles, so connections
    interleave freely while responses on one connection come back in
    its request order.

    {2 Graceful drain}

    A [shutdown] request stops the acceptor and begins the drain:
    in-flight batches finish and their responses are written; for
    [drain_grace_s] each reader answers late requests with structured
    [draining] refusals; then every connection is closed and {!serve}
    returns only after all readers have quiesced. Slow-loris,
    oversized-frame and refusal handling are the {!Frontend}'s. *)

type config = {
  workers : int;  (** pool domains for batch work *)
  queue : int;  (** admission bound, shared across connections *)
  cache_capacity : int;  (** memo-cache entries; 0 disables *)
  default_fuel : int option;
      (** deadline for requests that don't set ["fuel"]; [None] = none *)
  max_conns : int;  (** concurrent-connection bound; beyond = refused *)
  backlog : int;  (** listen(2) backlog for {!bind_address} *)
  idle_timeout_s : float;
      (** per-connection mid-frame read deadline (slow-loris
          eviction); 0 = none *)
  drain_grace_s : float;
      (** how long readers refuse late requests during graceful drain *)
  max_line_bytes : int;
      (** frame bound; longer lines poison (close) their connection *)
}

val default_config : config
(** workers 2, queue 64, cache 256, default fuel [Some 5_000_000],
    max_conns 64, backlog 128, idle timeout 30 s, drain grace 0.5 s,
    max line 1 MiB. *)

type t

val create : config -> t

(** {2 Request processing} *)

val process_batch : t -> string list -> string list
(** Answer one batch of request lines, in order. Blank lines get no
    response (and occupy no admission slot). Thread-safe: concurrent
    readers call this on the shared server. *)

val handle_line : t -> string -> string
(** Single-request batch. *)

val stopping : t -> bool
(** A [shutdown] request has been answered; loops should drain. *)

val stats_payload : t -> (string * string) list
(** The [stats] response payload (also reachable in-process, e.g. for
    benches that want cache numbers or per-kind latency quantiles
    without a socket round-trip). Includes the [latency] object (one
    {!Crs_obs.Hist} per request kind, in microseconds: count, p50/p99
    bucket upper edges and max) and the [connections] lifecycle
    counters (live/accepted/refused/evicted/drained). *)

val drain : t -> unit
(** Join the worker pool (idempotent). Call after the serve loop.

    {2 Drain state machine}

    [running → stopping → hook → drained]: a [shutdown] request (or
    {!stopping} being observed) moves the server to {i stopping} —
    readers finish in-flight batches, refuse latecomers with [draining]
    and close. The first {!drain} call then (1) fires the {!set_on_drain}
    hook exactly once, while the memo cache is final but the process is
    still fully alive — the only sound moment to snapshot cache keys —
    and (2) shuts the executor down. Further {!drain} calls only re-join
    the (already stopped) executor. *)

val set_on_drain : t -> (t -> unit) -> unit
(** Install the drain hook (latest wins). It runs once, inside the
    first {!drain}, before the executor stops; exceptions are reported
    on stderr and swallowed so a failing hook cannot wedge the drain.
    The warm subsystem uses this to persist the canonical-key set. *)

val cache_keys : t -> string list
(** Memo-cache keys ({!Canon.Solve_key} renderings), most-recent first
    — the canonical-key set a warm snapshot persists. *)

(** {2 Warm-replay progress}

    Updated by the warm subsystem ([Warm.load_and_replay]); exported as
    the [warm] object of the [stats] response so operators can watch a
    restarted server refill its cache. *)

val warm_begin : t -> entries:int -> unit
val warm_note : t -> ok:bool -> unit
val warm_finish : t -> unit

(** {2 Streams and sockets} *)

val serve_io : t -> input:Unix.file_descr -> output:Unix.file_descr -> unit
(** Serve a single session until EOF on [input] or a [shutdown]
    request ({!Frontend.serve_io}): the stdio/pipeline mode, with no
    idle eviction and no drain grace. *)

val attach : t -> Unix.file_descr -> Thread.t option
(** {!Frontend.attach} with this server's session: the reader thread of
    a connected fd, or [None] when it was refused at [max_conns]. *)

type address = Unix_sock of string | Tcp of string * int

val address_to_string : address -> string

val parse_address : string -> (address, string) result
(** [unix:PATH] or [tcp:HOST:PORT]. The error names the offending
    value. *)

val bind_address :
  ?backlog:int -> address -> (Unix.file_descr, string) result
(** Bind and listen with the given backlog (default
    [default_config.backlog]). A Unix socket path that already exists
    is a bind error (the server never unlinks a path it did not
    create) — the error names the address and the system cause. *)

val serve : t -> Unix.file_descr -> unit
(** {!Frontend.serve} with this server's session: accept until a
    [shutdown] request, then join every reader (graceful drain). *)

val close_address : address -> Unix.file_descr -> unit
(** Close the listening socket and remove a Unix socket path. *)
