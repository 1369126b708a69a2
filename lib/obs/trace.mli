(** Span-based tracer with per-domain buffers.

    A span is a named, timed region of execution with key/value
    attributes; spans nest, so a run decomposes into a forest (one tree
    per top-level operation). Recording is off by default and the
    fast-path cost when disabled is a single [Atomic.get] — hot code may
    call {!with_span} unconditionally, but should guard attribute-list
    construction behind {!enabled} (or use {!with_span_l}) to avoid
    allocating when nothing listens.

    Each domain records into its own buffer ([Domain.DLS]), so tracing
    is safe under the campaign [Pool] without locking on the hot path.
    Which pool domain runs which item is scheduling-dependent, so raw
    buffers are not deterministic; {!forest} rebuilds the span trees and
    sorts roots by (name, attributes), which {i is} deterministic as
    long as concurrent root spans carry distinguishing attributes (the
    campaign runner tags each item span with its unique id).
    {!signature} renders that sorted forest without timestamps — two
    runs of the same seeded workload must produce equal signatures
    whatever the pool size.

    Exporters: {!to_chrome} writes Chrome [trace_event] JSON (load in
    [chrome://tracing] or {{:https://ui.perfetto.dev}Perfetto});
    {!to_jsonl} writes one span object per line for ad-hoc analysis. *)

(** Attribute value. *)
type value = Str of string | Int of int | Float of float | Bool of bool

type span = {
  name : string;
  attrs : (string * value) list;
  start_ns : int64;  (** monotonic clock, arbitrary epoch *)
  dur_ns : int64;
  tid : int;  (** recording domain's trace id (dense, assigned on first span) *)
  seq : int;  (** start order within the recording domain *)
  depth : int;  (** nesting depth within the recording domain, 0 = root *)
}

(** A span and the spans started (and finished) inside it, in start
    order. *)
type tree = { span : span; children : tree list }

(** {2 Recording} *)

val enabled : unit -> bool
val set_enabled : bool -> unit
(** Tracing is process-global and off by default. Flip it before the
    traced workload; flipping it mid-span loses that span. *)

val with_span : ?attrs:(string * value) list -> string -> (unit -> 'a) -> 'a
(** [with_span ~attrs name f] runs [f ()]; when tracing is enabled the
    region is recorded as a span. Exceptions propagate, and the span is
    still recorded with an ["error"] attribute appended. *)

val with_span_l :
  (unit -> (string * value) list) -> string -> (unit -> 'a) -> 'a
(** Like {!with_span} but the attribute list is built only when tracing
    is enabled — for call sites where constructing it costs. *)

val add_attrs : (string * value) list -> unit
(** Append attributes to the innermost open span of the calling domain
    (no-op when tracing is disabled or no span is open). Used by hooks
    that only know their numbers — counter deltas, result sizes — after
    the work ran. *)

(** {2 Collection} *)

val spans : unit -> span list
(** All recorded spans from every domain's buffer, sorted by
    [(tid, seq)]. Call after concurrent work has joined. *)

val forest : unit -> tree list
(** Span trees rebuilt from [(tid, seq, depth)], roots from all domains
    merged and sorted by (name, encoded attributes). *)

val signature : unit -> string
(** Deterministic rendering of {!forest}: one line per span, indented by
    depth, [name{attrs}] — no timestamps, tids or seqs. The trace
    determinism tests compare signatures across pool sizes. *)

val reset : unit -> unit
(** Drop all recorded spans (buffers stay registered). *)

(** {2 Exporters} *)

val to_chrome : unit -> string
(** Chrome [trace_event] JSON: [{"traceEvents":[...],"displayTimeUnit":"ns"}],
    one complete-duration ([ph:"X"]) event per span with [ts]/[dur] in
    microseconds rebased to the earliest span, [pid] 1, [tid] the
    recording domain, attributes under [args]. *)

val to_jsonl : unit -> string
(** One stable-JSON object per span per line:
    [{"name","tid","seq","depth","start_ns","dur_ns","attrs"}]. *)
