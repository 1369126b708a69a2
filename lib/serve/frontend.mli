(** The connection frontend under {!Server} and {!Balancer}.

    It owns a connection's whole lifecycle: the accept loop, one reader
    thread per connection bounded by [max_conns], line framing, the
    oversized-frame and mid-frame-deadline evictions, the drain-grace
    window and the connection counters. What the lines mean is left to
    a per-connection {!session}.

    Every chunk of complete lines read from a connection is one batch:
    blank lines are dropped, and the rest go to [handle], or, once the
    owner is stopping, one by one to [refuse]. The answers are written
    back in request order. A connection that goes wrong dies alone:
    - {i slow-loris}: a frame was started but no further byte came
      within [idle_timeout_s]: one structured [evicted] response, then
      close. A quiet connection with no partial frame is never evicted;
    - {i oversized frame}: a line longer than [max_line_bytes]: one
      structured error naming the limit, then close;
    - {i mid-line EOF}: the final unterminated line is still a request.

    After the owner starts stopping, each reader refuses late requests
    for [drain_grace_s], then closes its connection. *)

val now_s : unit -> float
(** Monotonic seconds, for every deadline in the serve tier: a
    wall-clock step can neither fire nor stall one. *)

(** A buffered line connection: both ends of the wire use it. *)
module Lines : sig
  type t

  val of_fd : Unix.file_descr -> t
  (** Wrap a connected stream socket (read and write on one fd). *)

  val fd : t -> Unix.file_descr
  val send_line : t -> string -> unit

  val fill : t -> unit
  (** One [read(2)]: queue the complete lines it finishes. End of
      stream, or a reset by the peer, sets {!eof}. *)

  val eof : t -> bool

  val recv_line : ?timeout_s:float -> t -> string option
  (** The next complete line, reading as needed. [None] at end of
      stream (an unterminated tail is dropped) or when [timeout_s]
      elapses; the timeout bounds the whole receive. *)

  val rpc : t -> string -> string
  (** {!send_line} then {!recv_line}.
      @raise Failure at end of stream. *)

  val close : t -> unit
end

type config = {
  max_conns : int;  (** concurrent connections; beyond = refused *)
  idle_timeout_s : float;  (** mid-frame read deadline; 0 = none *)
  drain_grace_s : float;  (** how long readers refuse latecomers *)
  max_line_bytes : int;  (** frame bound; longer lines evict *)
}

type session = {
  handle : string list -> string list;
      (** answer a batch of non-blank lines, one response per line *)
  refuse : string -> string;
      (** answer one line that arrived while stopping *)
  close : unit -> unit;  (** the connection ended *)
}

val draining : string -> string
(** A [draining] refusal echoing the line's id and kind: the usual
    [refuse]. *)

type t

val create : config -> stopping:(unit -> bool) -> t
(** [stopping] is polled by the accept loop and the readers. Also
    ignores SIGPIPE process-wide, so a vanished peer is an [EPIPE] on
    its own connection. *)

val attach : t -> (unit -> session) -> Unix.file_descr -> Thread.t option
(** Register a connected fd: spawn and return its reader thread, which
    opens a session, serves it and closes the fd. Beyond [max_conns],
    write one structured [overloaded] response, close the fd, count the
    refusal and return [None]. The fd is made close-on-exec, so no
    child process keeps the connection open. Tests and benches drive
    the frontend over socketpairs with this. *)

val serve : t -> (unit -> session) -> Unix.file_descr -> unit
(** Accept loop on a listening socket, one {!attach} per connection,
    until [stopping]; then join every reader before returning. The
    caller still owns the listening fd. *)

val serve_io :
  t -> session -> input:Unix.file_descr -> output:Unix.file_descr -> unit
(** One uncounted stream (stdio, pipelines) until EOF or a stop: no
    idle eviction and no drain grace. *)

val connections_json : t -> string
(** The [connections] stats object: live, max, accepted, refused,
    evicted, drained. *)
