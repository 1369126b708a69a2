(** Shared stable-JSON writer (and minimal reader).

    Three subsystems persist hand-rolled JSON with byte-stable output —
    campaign reports ({!Crs_campaign.Report}), the fuzz corpus
    ({!Crs_fuzz.Corpus}) and observability snapshots
    ({!Crs_obs.Metrics}, {!Crs_obs.Trace} exporters). They must agree on
    escaping and number rendering or their digests drift; this module is
    the single encoder all of them build on. No JSON library is
    installed, and none is needed: writers emit strings through the
    combinators below (stable key order is the caller's duty — pass
    fields in a fixed order), and {!parse} is a small validating reader
    for the writers' own output: the serve protocol, the warm file, the
    fuzz corpus, schema tests and round-trip checks all read through
    it. *)

(** {2 Encoding} *)

val escape : string -> string
(** JSON string-body escaping: backslash, quote, [\n], [\t], and
    [\u00XX] for other control characters. *)

val str : string -> string
(** Quoted, escaped string literal. *)

val str_opt : string option -> string
(** {!str} or [null]. *)

val int : int -> string
val int_opt : int option -> string

val float : float -> string
(** Fixed-point, locale-free rendering ([%.6f]): bit-stable across runs,
    the same style as campaign ratios. *)

val float_opt : float option -> string

val bool : bool -> string

val obj : (string * string) list -> string
(** Object from (key, pre-encoded value) pairs, in the given order. *)

val arr : string list -> string
(** Array from pre-encoded element strings, in the given order. *)

(** {2 Decoding} *)

(** Parsed JSON value. Numbers without ['.'], ['e'] or ['E'] that fit in
    an [int] parse as [Int]; all others as [Float]. *)
type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** Strict recursive-descent parser for the subset this module writes
    (which is all of JSON except string escapes beyond quote, backslash,
    slash, [b f n r t] and [u00XX]). Requires exactly one value plus
    trailing whitespace: any other byte after the first complete
    top-level value is rejected as trailing garbage, with the offending
    character and its byte offset in the message — so in line-delimited
    protocols one malformed line fails loudly instead of silently
    bleeding into the next. [Error] always carries the byte offset and
    cause. *)

val to_string : t -> string
(** Re-encode a parsed value with this module's combinators ([Obj] keys
    keep their parsed order). [parse (to_string v)] returns [Ok v] for
    every [v] this module produces — the round-trip law the schema tests
    rely on. *)

val member : string -> t -> t option
(** [member key (Obj fields)] looks up [key]; [None] on missing keys or
    non-objects. *)
