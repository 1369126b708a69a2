(** Process-sharded serve tier: one front balancer, N [crsched serve]
    worker processes on private Unix sockets.

    The balancer accepts client connections on the public listen
    address and routes every work request by {b rendezvous hash} of its
    canonical key ({!Canon.key}), so canonically equivalent instances
    always reach the same shard's memo cache — the byte-identity
    guarantee survives sharding — while distinct keys spread evenly.
    Control requests are handled at the front: [hello] locally,
    [stats] by aggregating every shard's live stats, [shutdown] by
    draining the whole tier.

    {2 Robustness}

    - A {i monitor} thread reaps dead workers and respawns them with
      exponential backoff (stale socket paths unlinked first; backoff
      resets once a respawn comes up ready).
    - A {i health} thread pings every shard's [stats] on an interval;
      results drive the [alive] flag in aggregated stats.
    - A request whose shard is unreachable gets {b exactly one}
      structured [overloaded] refusal naming the shard — never a
      dropped line, never a stall on a dead worker. Accounting
      invariant: [accepted = answered + refused].
    - Shard responses — including a shard's own [overloaded] /
      [draining] refusals — are relayed byte-for-byte.
    - A tier drain ([shutdown] request, or {!drain}) forwards
      [shutdown] to every shard (each snapshots warm state via its
      drain hook and exits), refuses latecomers with [draining], then
      reaps every worker before returning.
    - Client connections run on the same {!Frontend} as [crsched
      serve]: [max_conns] refusal, oversized-frame eviction, and
      slow-loris eviction after serve's default 30 s idle deadline.
      Every deadline here is monotonic ({!Frontend.now_s}). *)

type config = {
  shards : int;  (** worker-process count, >= 1 *)
  socket_dir : string;  (** directory for private shard sockets
                            (created if missing; owned by the tier) *)
  shard_argv : index:int -> socket:string -> string array;
      (** argv for shard [index] listening on [socket];
          [argv.(0)] is the executable path *)
  health_interval_s : float;  (** delay between stats-ping sweeps *)
  restart_backoff_s : float;  (** first respawn delay after a death *)
  restart_backoff_max_s : float;  (** backoff doubling cap *)
  connect_timeout_s : float;
      (** how long to wait for a (re)spawned shard's socket to accept *)
  rpc_timeout_s : float;  (** per-response deadline on shard
                              connections (forwarding, pings, drain) *)
  drain_grace_s : float;
      (** how long client readers answer latecomers with [draining]
          during a tier drain before closing *)
  max_line_bytes : int;  (** client frame bound, as in {!Server} *)
  max_conns : int;  (** concurrent client connections; beyond = one
                        structured [overloaded] response and close *)
}

val default_config :
  shards:int ->
  socket_dir:string ->
  shard_argv:(index:int -> socket:string -> string array) ->
  config
(** Health interval 1 s, backoff 0.05 s doubling to 2 s, connect
    timeout 10 s, rpc timeout 30 s, drain grace 0.5 s, max line 1 MiB,
    max conns 64. *)

val shard_socket : socket_dir:string -> int -> string
(** [socket_dir/shard-<i>.sock] — the path [shard_argv] receives. *)

val route : shards:int -> string -> int
(** Rendezvous (highest-random-weight) shard choice for a routing key:
    every shard scores [Digest.string (key ^ "#" ^ index)] and the
    lexicographically greatest digest wins. A pure function of
    [(key, shards)] — stable across balancer restarts — and minimally
    disruptive under shard-count changes. *)

type t

val create : config -> (t, string) result
(** Spawn every shard, wait for each socket to accept, then start the
    monitor and health threads. [Error] (naming the shards that never
    came up) kills any worker that did start. *)

val serve : t -> Unix.file_descr -> unit
(** {!Frontend.serve} on the public listening socket, with a session
    that routes each line to its shard. Returns after a tier drain has
    begun and every reader has quiesced. The caller still owns the
    listening fd. *)

val attach : t -> Unix.file_descr -> Thread.t option
(** {!Frontend.attach} with the routing session: tests and benches drive
    the balancer over socketpairs with this. A session's shard
    connections close with its client connection. *)

val drain : t -> unit
(** Begin (or join) the tier drain: forward [shutdown] to every shard,
    stop the monitor/health threads, reap every worker — escalating to
    SIGTERM/SIGKILL for a wedged one — and clear the shard sockets.
    Idempotent. *)

val stopping : t -> bool
(** A tier drain has begun. *)

val shard_pids : t -> int array
(** Current worker pids, by shard index (0 = not running). Exposed for
    restart-under-load tests. *)

val stats_payload : t -> (string * string) list
(** The aggregated [stats] payload: tier-wide request/cache sums over
    live per-shard stats RPCs, plus a [balancer] object — accepted /
    answered / refused accounting, restart total, the frontend's
    connection counters (live / max / accepted / refused / evicted /
    drained) and a per-shard array (index, alive, pid, restarts, routed, ping
    counts, and the shard's own requests / cache / [warm] progress
    passed through verbatim). *)
