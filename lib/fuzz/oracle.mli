(** Differential and metamorphic test oracles, as data.

    An oracle is a named property of a single instance that the solver
    stack must satisfy: cross-solver equality on exact kinds, the
    paper's approximation bounds, certification of every witness
    schedule, and metamorphic invariances (processor permutation,
    zero-requirement padding, requirement monotonicity). The fuzz driver
    ({!Driver}), the corpus replayer ({!Corpus}) and
    [crsched fuzz --oracle <name>] all look oracles up here by name. *)

type t = {
  name : string;
  about : string;  (** one line for [--help] and reports *)
  applies : Crs_core.Instance.t -> bool;
      (** instances the property is defined on (e.g. exact solvers need
          unit sizes); the driver records non-applicable seeds as skips *)
  check : Crs_core.Instance.t -> (unit, string) result;
      (** [Error msg] is a counterexample; [msg] names the violated
          relation and the values on both sides *)
}

val exact_agreement : t
(** All applicable exact-kind registry solvers report one makespan. *)

val witness_certified : t
(** Every witness-capable applicable solver's outcome passes
    {!Certify.check} against its claimed makespan. *)

val approx_bounds_hold : t
(** optimum ≤ makespan ≤ bound·optimum for each registered
    approximation guarantee: GreedyBalance's (2 − 1/m) (Theorem 7) and
    RoundRobin's 2 (Theorem 5). *)

val permutation_invariance : t
(** The optimal makespan is invariant under reversing the processor
    order (schedules carry no processor identity). *)

val zero_pad_invariance : t
(** Adding one processor holding a single zero-requirement job leaves
    the optimal makespan unchanged (the job runs at full speed on a zero
    share, finishing in step 1 ≤ OPT). *)

val requirement_monotonicity : t
(** Raising requirements ([r ↦ min(1, 3r/2)]) never decreases the
    optimal makespan. *)

val zero_pad_instance : Crs_core.Instance.t -> Crs_core.Instance.t
(** The mutation behind {!zero_pad_invariance}: append one processor
    holding a single zero-requirement unit job. Exported so other layers
    (the serve canonicalizer tests) can exercise the same proven-neutral
    transformation instead of reinventing it. *)

val all : t list
val names : string list
val find : string -> t option

val differential :
  name:string ->
  ?about:string ->
  ?applies:(Crs_core.Instance.t -> bool) ->
  reference:(Crs_core.Instance.t -> int) ->
  candidate:(Crs_core.Instance.t -> int) ->
  unit ->
  t
(** Build a two-solver equality oracle; used by the mutation self-test
    to hunt a deliberately broken solver against a trusted reference. *)
