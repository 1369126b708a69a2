(** Fuzz-campaign driver: sweep an oracle over a seeded generator family
    on the {!Crs_exec.Exec} work-stealing executor with fuel-based
    timeouts.

    Determinism contract (same as campaign runs): the instance for a
    seed depends only on the seed and the config, fuel is work-based,
    and {!render} contains no timing — so the same config produces a
    byte-identical report at any pool size, twice in a row. *)

type config = {
  family : Crs_campaign.Spec.family;
  m : int;
  n : int;  (** jobs per processor *)
  granularity : int;
  seed_lo : int;
  seed_hi : int;  (** inclusive; must be >= [seed_lo] *)
  fuel : int option;  (** per-seed work budget; [None] = unmetered *)
}

val default_config : config
(** uniform, m = 3, n = 3, granularity = 10, seeds 1..50, fuel 2M. *)

val instance_of : config -> seed:int -> Crs_core.Instance.t
(** The seed's instance under the campaign seeding discipline
    ([Random.State.make [|seed|]]). *)

type outcome =
  | Pass
  | Fail of string  (** the oracle's counterexample message *)
  | Timeout  (** the fuel budget ran out *)
  | Skip  (** the oracle does not apply to this seed's instance *)

type case = { seed : int; digest : string; outcome : outcome }

type report = {
  oracle : string;
  config : config;
  cases : case array;  (** one per seed, in seed order *)
  passes : int;
  failures : int;
  timeouts : int;
  skips : int;
}

val run : ?domains:int -> config -> Oracle.t -> report
(** Evaluate every seed of the range. [domains > 1] fans items out on a
    {!Crs_exec.Exec.map}; results are identical at any pool size.
    @raise Invalid_argument on an empty/inverted seed range or
    non-positive m/n/granularity. *)

val failing_cases : report -> (int * string) list
(** (seed, message) for every [Fail] case, in seed order. *)

val shrink_failure :
  ?max_checks:int -> config -> Oracle.t -> seed:int -> Crs_core.Instance.t * Shrink.stats
(** Re-derive the seed's instance and minimize it under "the oracle
    still fails" (fuel-metered with the config's budget; running out
    counts as not-failing, so shrinking never hangs). *)

val render : report -> string
(** Deterministic multi-line report: header, one line per non-pass case,
    summary counts and a digest over the whole text. *)

val render_digest : report -> string
(** MD5 hex of {!render}; the byte-identity fingerprint. *)
