(** Capability-aware solver registry.

    Every algorithm in the repo — the paper's exact solvers, its
    2-approximations, the baseline heuristics and the semi-online
    variants — is exposed as a first-class module implementing
    {!SOLVER}: a canonical name, a {!kind}, a capability record
    ({!requires}) saying which instances it accepts, and a uniform
    [solve] returning the makespan, an optional witness schedule and
    structured work counters ({!Counters.t}).

    The registry is the single source of truth for algorithm name
    strings and for how a solve is metered: the CLI derives its
    [--algorithm] enums from {!names}, and every caller — the CLI, the
    campaign runner, the server, the fuzz oracles — solves through
    {!run}, which owns the capability check (an exact solver swept over
    an [m = 3] family reports [not_applicable] instead of crashing) and
    the fuel budget with its timeout. *)

(** Canonical name constants — the only place these strings are
    defined. Everything else ([Spec], the CLI, the benches, the
    many-core policy table) refers to them by identifier. *)
module Names : sig
  val greedy_balance : string
  val round_robin : string
  val uniform : string
  val proportional : string
  val staircase : string
  val fewest_remaining_first : string
  val largest_requirement_first : string
  val smallest_requirement_first : string
  val optimal : string
  val opt_two : string
  val opt_two_pq : string
  val opt_two_pareto : string
  val opt_config : string
  val brute_force : string
  val online_greedy_balance : string
  val online_round_robin : string
end

(** Uniform work counters. Each solver fills the fields it can measure
    natively; {!run} additionally meters [fuel_ticks] as the
    {!Crs_util.Fuel.ticks} delta across the run, so every fuel-aware
    solver gets a comparable work figure even when its native counters
    differ in meaning. *)
module Counters : sig
  type t = {
    states_expanded : int;  (** DP cells / PQ pops / search nodes / configs *)
    dp_relaxations : int;  (** transitions examined *)
    configs_enumerated : int;  (** configurations generated (Opt_config) *)
    memo_hits : int;  (** memo-table probes answered (Brute_force) *)
    memo_misses : int;  (** memo-table probes that missed (Brute_force) *)
    fuel_ticks : int;  (** {!Crs_util.Fuel.ticks} delta across the solve *)
  }

  val zero : t

  val to_assoc : t -> (string * int) list
  (** Stable field order for serialization (JSONL, bench reports). *)
end

type kind =
  | Exact  (** provably optimal makespan *)
  | Approx  (** worst-case approximation guarantee from the paper *)
  | Heuristic  (** no guarantee; baseline comparator *)
  | Online  (** information-restricted (semi-online) policy *)

val kind_to_string : kind -> string

(** What a solver needs from an instance. [applicability] checks these
    against a concrete instance before dispatch. *)
type requires = {
  min_m : int;  (** fewest processors accepted *)
  max_m : int option;  (** most processors accepted; [None] = unbounded *)
  unit_size_only : bool;  (** accepts only unit-size jobs *)
  fuel_aware : bool;  (** charges {!Crs_util.Fuel.charge}, so budgets apply *)
}

type outcome = {
  makespan : int;
  schedule : Crs_core.Schedule.t option;
      (** a witness achieving [makespan]; [None] for makespan-only
          solvers (opt-two-pq, opt-two-pareto, brute-force) *)
  counters : Counters.t;
}

module type SOLVER = sig
  val name : string
  val kind : kind
  val about : string
  (** One-line description for tables and [--help]. *)

  val requires : requires

  val witness : bool
  (** [solve] always returns [Some schedule]. *)

  val solve : Crs_core.Instance.t -> outcome
end

type solver = (module SOLVER)

(** Why {!run} returned no outcome. *)
type failure =
  | Inapplicable of string
      (** the instance fails the solver's {!requires}; the sentence says
          which bound. No solve ran and no fuel was spent. *)
  | Timeout of int
      (** the [~fuel] budget ran out; carries the ticks spent, which is
          the budget + 1 (the overrunning tick is counted) *)

val all : solver list
(** Every registered solver. The first nine entries keep the historical
    campaign-table order (heuristics then ["optimal"]); the exact
    variants and online policies follow. *)

val names : string list
(** Names of {!all}, in order. *)

val find : string -> solver option
val find_exn : string -> solver
(** @raise Invalid_argument on an unknown name, listing valid ones. *)

(** {2 Projections} *)

val name : solver -> string
val kind : solver -> kind
val about : solver -> string
val requires : solver -> requires
val witness : solver -> bool

val applicability : solver -> Crs_core.Instance.t -> (unit, string) result
(** [Ok ()] when the instance satisfies the solver's {!requires};
    otherwise [Error reason] with a human-readable sentence. *)

val run :
  ?fuel:int ->
  ?certify:bool ->
  solver ->
  Crs_core.Instance.t ->
  (outcome, failure) result
(** The one metered solve: checks {!applicability}, runs the solver
    under a {!Crs_util.Fuel} budget of [fuel] ticks, and fills
    [counters.fuel_ticks] with the {!Crs_util.Fuel.ticks} delta. The
    budget encloses the [registry.solve] trace span. Without [~fuel] no
    budget of its own is set: an enclosing {!Crs_util.Fuel.with_fuel}
    still raises {!Crs_util.Fuel.Out_of_fuel} to its owner, and
    [Timeout] is never returned. With [~certify:true], a witness outcome
    is additionally audited by the installed independent certifier (see
    {!install_certifier}): feasibility, job order, completion, and the
    claimed makespan are re-derived from the schedule alone.
    Makespan-only outcomes are passed through unaudited.
    @raise Failure when certification fails, or when [~certify:true] is
    requested with no certifier installed. Exceptions of the solver
    itself propagate. *)

val solve : ?certify:bool -> solver -> Crs_core.Instance.t -> outcome
(** {!run} without a budget, for callers that have already ruled out
    inapplicable instances.
    @raise Invalid_argument ["Registry.solve: <reason>"] when the
    instance is not applicable. *)

val install_certifier :
  (Crs_core.Instance.t ->
  Crs_core.Schedule.t ->
  claimed:int ->
  (unit, string) result) ->
  unit
(** Install the post-pass used by [run ~certify:true]. The certifier
    itself lives in [crs_fuzz] (which depends on this library), so it is
    injected here rather than referenced directly; linking
    [Crs_fuzz.Certify] installs the real one. *)

val policies : (string * Crs_core.Policy.t) list
(** The policy-backed solvers (kinds [Approx], [Heuristic], [Online]) as
    step policies, for property tests and the simulator. Replaces the
    former [Heuristics.all]. *)
