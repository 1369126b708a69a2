(** Fuzz-campaign driver: sweep an oracle over the seeds of a campaign
    {!Crs_campaign.Spec.t} — its generator family, sizes, seed range
    and per-seed fuel; its algorithms and baseline play no part — with
    the campaign's own seed fan-out ({!Crs_campaign.Runner.map_seeds}).

    Determinism contract (same as campaign runs): the instance for a
    seed is {!Crs_campaign.Spec.instance}, fuel is work-based, and
    {!render} contains no timing — so the same spec produces a
    byte-identical report at any pool size, twice in a row. *)

type outcome =
  | Pass
  | Fail of string  (** the oracle's counterexample message *)
  | Timeout  (** the fuel budget ran out *)
  | Skip  (** the oracle does not apply to this seed's instance *)

type case = { seed : int; digest : string; outcome : outcome }

type report = {
  oracle : string;
  spec : Crs_campaign.Spec.t;
  cases : case array;  (** one per seed, in seed order *)
  passes : int;
  failures : int;
  timeouts : int;
  skips : int;
}

val run : ?domains:int -> Crs_campaign.Spec.t -> Oracle.t -> report
(** Evaluate every seed of the range; results are identical at any pool
    size.
    @raise Invalid_argument when {!Crs_campaign.Spec.validate} rejects
    the spec. *)

val failing_cases : report -> (int * string) list
(** (seed, message) for every [Fail] case, in seed order. *)

val shrink_failure :
  ?max_checks:int ->
  Crs_campaign.Spec.t ->
  Oracle.t ->
  seed:int ->
  Crs_core.Instance.t * Shrink.stats
(** Re-derive the seed's instance and minimize it under "the oracle
    still fails" (fuel-metered with the spec's budget; running out
    counts as not-failing, so shrinking never hangs). *)

val render : report -> string
(** Deterministic multi-line report: header, one line per non-pass case,
    summary counts and a digest over the whole text. *)

val render_digest : report -> string
(** MD5 hex of {!render}; the byte-identity fingerprint. *)
