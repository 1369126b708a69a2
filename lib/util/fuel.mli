(** Deterministic computation budgets ("fuel") for long-running solvers.

    An exact solver fetches its domain's {!meter} once per solve and
    calls {!charge} at each unit of work (DP cell, DFS node, generated
    configuration). Inside [with_fuel (Some b) f], the [b+1]-th charge
    raises {!Out_of_fuel}; outside, charges only count. Because the
    counter measures work — not wall-clock time — the same input and
    budget give the same outcome on any machine and at any domain-pool
    size, which is what makes campaign results reproducible.

    The budget is domain-local: concurrent workers each get their own
    counter, and nested [with_fuel] calls restore the outer budget. *)

exception Out_of_fuel

type meter
(** The calling domain's counter. A meter is only valid in the domain
    that fetched it; it always reads the innermost budget in force, so
    one fetched before a nested {!with_fuel} obeys the inner budget
    while that runs. *)

val meter : unit -> meter
(** The calling domain's meter: one domain-local lookup, so fetch it
    once per solve, not per unit. *)

val charge : meter -> unit
(** Consume one unit. @raise Out_of_fuel when the budget is exhausted
    (the unit still counts in {!ticks}). *)

val with_fuel : int option -> (unit -> 'a) -> 'a
(** [with_fuel (Some b) f] runs [f] with at most [b] charges; [with_fuel
    None f] runs it unmetered. The previous budget is restored on exit.
    @raise Invalid_argument on a negative budget. *)

val remaining : unit -> int option
(** Charges left under the innermost [with_fuel], [None] when unmetered. *)

val ticks : unit -> int
(** Cumulative charges ever made in this domain, metered or not —
    monotone, so a solver's work is the delta across its run. This is
    the shared substrate for the registry's uniform work counters. *)
