(** Randomized differential tester for {!Rational}.

    Runs a deterministic stream of operations through {!Rational} and
    through an internal reference implementation (naive bigint
    numerator/denominator pairs, no fast paths), comparing values,
    ordering, rounding, printing, hashing and the representation's
    canonicality invariant after every step. The operand distribution is
    biased toward the two-tier representation's fault lines: tiny
    fractions, numerators/denominators adjacent to [max_int] and to
    {!Rational.small_bound} (forced spills), and multi-limb values.

    Used by the tier-1 test suite (so a representation regression fails
    [dune runtest]) and by [bench num --check]. *)

type outcome = { ops : int; spellings : int; mismatches : string list }

val run : ?ops:int -> seed:int -> unit -> outcome
(** [run ~ops ~seed ()] samples [ops] operations (default 10_000) and
    [ops / 2] integer and fraction spellings deterministically from
    [seed], and returns every mismatch found. A spelling's parse is
    compared with a reference that reads each part with
    {!Bigint.of_string}: value and tier, or exception and message. *)

val run_exn : ?ops:int -> seed:int -> unit -> outcome
(** Like {!run}. @raise Failure on the first mismatching outcome. *)

val ok : outcome -> bool

val describe : outcome -> string
(** One-line human summary. *)
