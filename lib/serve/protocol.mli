(** The [crs-serve/1] wire protocol.

    Line-delimited JSON over a byte stream: each request is one
    {!Crs_util.Stable_json} object on one line, each answer one response
    object on one line, in request order. The protocol is versioned by
    the mandatory ["proto"] field — a request carrying any other value
    is answered with a structured error instead of being guessed at —
    and strict: trailing garbage after the JSON value, unknown request
    kinds and malformed bodies all produce ["status":"error"] responses
    carrying the parser's byte-offset message, never a dropped line, so
    one bad request cannot desynchronize the stream.

    Requests:
    {v
    {"proto":"crs-serve/1","kind":"hello"}
    {"proto":"crs-serve/1","id":7,"kind":"solve","instance":"1/2 1/3\n1/4",
     "algorithm":"optimal","fuel":100000,"witness":true}
    {"proto":"crs-serve/1","kind":"campaign","family":"uniform","m":3,
     "n":3,"granularity":10,"seed_lo":1,"seed_hi":8,
     "algorithms":["greedy-balance"],"baseline":"exact"}
    {"proto":"crs-serve/1","kind":"stats"}
    {"proto":"crs-serve/1","kind":"shutdown"}
    v}

    Responses mirror the request's optional ["id"] (echoed only when the
    client sent one — responses are otherwise byte-stable functions of
    the request body) and carry ["kind":"response"], ["req"] naming the
    request kind, and a ["status"] of [ok], [error], [timeout],
    [overloaded], [not_applicable], [draining] or [evicted]. The last
    two arrive with ["req":"connection"]: they are connection-level
    events (a refusal during graceful drain, an idle-deadline eviction)
    rather than answers to a particular request body. *)

val version : string
(** ["crs-serve/1"]. *)

type solve = {
  algorithm : string;  (** registry name; default [greedy-balance] *)
  instance : Crs_core.Instance.t;
  fuel : int option;  (** tick budget; [None] = server default *)
  witness : bool;  (** include the schedule witness (default false) *)
  certify : bool;  (** audit the witness before answering (default false) *)
  cache : bool;  (** allow memo-cache use for this request (default true) *)
}

type request =
  | Hello
  | Solve of solve
  | Campaign of Crs_campaign.Spec.t
  | Stats
  | Shutdown

val kind_of_request : request -> string

type parsed = {
  id : int option;
      (** client correlation id, recovered even from requests whose body
          fails validation (as long as the JSON itself parsed) *)
  body : (request, string) result;
}

val parse : string -> parsed
(** Strict parse of one request line. Never raises; all failures —
    malformed JSON (with byte offset), wrong ["proto"], unknown
    ["kind"], invalid bodies, oversized campaigns — land in [Error]. *)

val max_campaign_items : int
(** Upper bound on [seeds × algorithms] accepted per campaign request;
    larger specs are rejected at parse time. *)

(** {2 Response assembly}

    A response is its payload field list (starting with ["status"])
    wrapped in the envelope. Payloads are what the server memo-caches:
    they contain no id and no envelope, so a cached payload re-wrapped
    for a different request is byte-identical except for the caller's
    own id. *)

val respond : id:int option -> req:string -> (string * string) list -> string
(** Wrap a payload: [{"proto":...,"id":...?,"kind":"response","req":...,
    <payload fields>}]. Values in the payload list are pre-encoded (the
    {!Crs_util.Stable_json} combinator convention). *)

val ok_solve :
  algorithm:string ->
  makespan:int ->
  schedule:Crs_core.Schedule.t option ->
  counters:Crs_algorithms.Registry.Counters.t ->
  canon_digest:string ->
  (string * string) list
(** [status ok] payload for a solve. [canon_digest] is the MD5 of the
    canonical instance key — equal digests identify the equivalence
    class the answer was computed for. *)

val ok_campaign : Crs_campaign.Report.summary -> (string * string) list

val ok_hello : algorithms:string list -> (string * string) list

val error : string -> (string * string) list
val timeout : fuel:int -> fuel_ticks:int -> (string * string) list

val fuel_refused : fuel:int option -> max_fuel:int -> (string * string) list
(** A work request's fuel ([None] = unmetered) above the server's
    [--max-fuel] ceiling: an [error] whose [max_fuel] field names it. *)

val overloaded : unit -> (string * string) list
val not_applicable : string -> (string * string) list

val draining : unit -> (string * string) list
(** [status draining]: the server acknowledged a shutdown and refuses
    new work while live connections quiesce. *)

val evicted : idle_s:float -> (string * string) list
(** [status evicted]: the connection sat idle (no complete frame) past
    the server's read deadline and is being closed — the slow-loris
    answer. Names the deadline that was exceeded. *)

val oversized : limit:int -> (string * string) list
(** [status error] naming the per-line byte limit a frame exceeded; the
    server closes the offending connection after sending it. *)
