(* Deterministic computation budgets ("fuel").

   A wall-clock timeout would make campaign outcomes depend on machine
   speed and pool contention; a fuel counter decremented at well-defined
   points inside the exact solvers makes the Timeout/Done outcome a pure
   function of the input — the same at any domain-pool size.

   The counter is domain-local (Domain.DLS), so concurrent campaign
   items never share a budget. A kernel fetches its domain's record
   once per solve ([meter]) and charges it per unit of work, so the
   per-unit cost is two field updates, not two DLS lookups. *)

exception Out_of_fuel

(* [spent]: charges ever made in this domain, metered or not — the
   substrate for uniform work counters (Registry.Counters); monotone,
   so callers measure a solve by taking a delta around it. [left]:
   charges the innermost [with_fuel] still allows, -1 for unlimited. *)
type meter = { mutable spent : int; mutable left : int }

let slot = Domain.DLS.new_key (fun () -> { spent = 0; left = -1 })
let meter () = Domain.DLS.get slot
let ticks () = (meter ()).spent

let charge m =
  m.spent <- m.spent + 1;
  let left = m.left in
  if left >= 0 then begin
    if left = 0 then raise Out_of_fuel;
    m.left <- left - 1
  end

let remaining () =
  let left = (meter ()).left in
  if left < 0 then None else Some left

let with_fuel budget f =
  let m = meter () in
  let saved = m.left in
  (match budget with
  | None -> m.left <- -1
  | Some b ->
    if b < 0 then invalid_arg "Fuel.with_fuel: negative budget";
    m.left <- b);
  Fun.protect ~finally:(fun () -> m.left <- saved) f
