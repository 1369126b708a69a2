(** Persisted regression corpus: pinned counterexamples, near-misses and
    seed-stability goldens under [data/corpus/*.json].

    Each file is one flat JSON object (schema [crs-fuzz-corpus/1],
    hand-rolled writer with stable key order — byte-stable like the
    campaign reports). An entry pins an instance (canonical text format)
    together with the oracle it must pass (or, for an open bug, still
    fail), a deterministic digest, and — for generator goldens — the
    seed and generator parameters that produced it, so replay also
    detects a silent [Random.State] or generator change. *)

type expectation = Pass | Fail

type entry = {
  name : string;  (** file basename without [.json] *)
  oracle : string;  (** {!Oracle.t} name this entry is replayed against *)
  expect : expectation;
      (** [Pass] for pinned regressions and near-misses; [Fail] for a
          freshly pinned open counterexample (flip to [Pass] once the
          bug is fixed) *)
  note : string;
  family : string option;  (** campaign generator family, when seeded *)
  seed : int option;
  gen_m : int option;
  gen_n : int option;
  gen_granularity : int option;
  instance_text : string;  (** [Instance.to_string] canonical form *)
  digest : string;  (** {!digest_of} of oracle and instance text *)
}

val digest_of : oracle:string -> instance_text:string -> string
(** MD5 hex over oracle name + instance text; deterministic file
    fingerprint, independent of JSON formatting. *)

val make :
  name:string ->
  oracle:string ->
  ?expect:expectation ->
  ?note:string ->
  ?family:string ->
  ?seed:int ->
  ?gen_m:int ->
  ?gen_n:int ->
  ?gen_granularity:int ->
  Crs_core.Instance.t ->
  entry
(** Build an entry with the digest filled in. [expect] defaults to
    [Pass]; the generator fields must either all be given or all be
    omitted. *)

val to_json : entry -> string
val of_json : string -> (entry, string) result
(** Read an entry with {!Crs_util.Stable_json.parse}: malformed JSON
    (including a bad or non-Latin-1 [\u] escape) and a missing or
    mistyped field come back as [Error], never as an exception. *)

val save : dir:string -> entry -> string
(** Write [<dir>/<name>.json] (creating [dir]), return the path. *)

val load_file : string -> (entry, string) result
val load_dir : string -> (string * (entry, string) result) list
(** All [*.json] entries of a directory in sorted filename order. *)

val replay : entry -> (unit, string) result
(** Full regression check: digest matches, the instance parses, the
    seeded generator (when pinned) still reproduces the exact instance,
    the named oracle exists and applies, and its verdict matches
    [expect]. *)
