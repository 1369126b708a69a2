(* The paper's m = 2 dynamic program (Section 6, Algorithm 1) on
   O(n1 + n2) live state.

   A state (i1, i2) = jobs completed per processor carries a tiny
   sufficient statistic: time t, the combined remainder r of the two
   active jobs, and the transition that produced it (the parent follows
   from the transition, so it is not stored). Transitions raise the
   level i1 + i2 by 1 or 2, so sweeping levels in order finalizes every
   state before it is expanded, and only three levels are live at once:
   the one being expanded and the two it relaxes into. The kernel keeps
   them as three rolling diagonals indexed by i1, each one flat int
   array with a 2-word stride:

     word 0 -- t and the 3-bit transition code packed as
               (t lsl 3) lor via; -1 marks unreached
     word 1 -- the remainder's numerator over L

   L is the lcm of the requirements' denominators, and
   [Rational.common_denominator] takes this tier when L <= max_int / 2:
   every remainder the DP forms is then a multiple of 1/L in [0, 2], so
   adds and compares are int operations that cannot overflow. When L is
   larger (the boxed tier) each diagonal keeps its remainders as boxed
   [Rational.t] values beside the packed words, and word 1 goes unused.
   Both tiers decide on the same exact values, so the reachable set,
   the counters and the witness do not depend on the tier.

   Each diagonal also records the span [lo, hi] of i1 its relaxations
   reached, and the sweep visits only that span: a level costs time in
   proportion to its reachable cells, so fuel, charged per reachable
   cell, bounds a solve's time as well as its memory. Levels in order,
   each over its reached span, are the priority queue that closes the
   paper's Section 6 as a bucket queue keyed by i1 + i2: only reachable
   states are expanded, and a push or pop costs O(1).

   [solve] keeps the via code of every swept cell, one byte each,
   allocated level by level as the sweep reaches it; the replay walks
   those codes back from the final state and re-runs the share
   arithmetic on boxed values. [makespan] keeps none. *)

module Q = Crs_num.Rational
open Crs_core

type counters = { cells_expanded : int; relaxations : int }
type solution = { makespan : int; schedule : Schedule.t; counters : counters }

(* Transition codes packed into the low bits of word 0. The parent of
   a cell follows from its code: Finish_both came from (i1-1, i2-1),
   Finish_fst / Only_fst from (i1-1, i2), Finish_snd / Only_snd from
   (i1, i2-1). *)
let start = 0

let finish_both = 1
let finish_fst = 2 (* processor 0's job completes; leftover invested in 1 *)
let finish_snd = 3 (* symmetric *)
let only_fst = 4 (* processor 1 has no jobs left *)
let only_snd = 5

(* The via byte of a swept cell the sweep never reached. *)
let unreached = '\255'

let check instance =
  if Instance.m instance <> 2 then
    invalid_arg "Opt_two: instance must have exactly 2 processors";
  if not (Instance.is_unit_size instance) then
    invalid_arg "Opt_two: unit-size jobs only"

(* Processor [i]'s requirements, with the zero requirement of the
   paper's "dummy job" at index n_i. *)
let requirements instance i =
  let n = Instance.n_i instance i in
  Array.init (n + 1) (fun k ->
      if k < n then Job.requirement (Instance.job instance i k) else Q.zero)

(* One live level: 2 words per i1 (layout above), the boxed tier's
   remainders, and the reached span of i1, empty when lo > hi. *)
type diag = { slots : int array; rems : Q.t array; mutable lo : int; mutable hi : int }

(* What a sweep leaves: the final state's packed word and remainder,
   and, when the via codes were kept, the bytes of each level below the
   final one with the i1 of its first byte. *)
type swept = {
  final_tv : int;
  final_r : Q.t;
  via_lo : int array;
  vias : Bytes.t array;
  counters : counters;
}

(* The sweep in level order. It is a top-level function rather than a
   closure handed to the span, so the hot loop reads the diagonals,
   [relax] and the requirement rows as locals instead of through a
   closure environment (DESIGN §5g). [level_hist] receives each level's
   expanded-cell count; [keep_vias] keeps the bytes [solve]'s replay
   reads. *)
let sweep instance level_hist ~keep_vias b1 b2 =
  let n1 = Instance.n_i instance 0 and n2 = Instance.n_i instance 1 in
  let levels = n1 + n2 in
  (* lden = 0 selects the boxed tier; rn1 and rn2 are then zero rows,
     and the int arithmetic below runs on them but decides nothing. *)
  let lden, rn1, rn2 =
    match Q.common_denominator ~bound:(max_int / 2) [| b1; b2 |] with
    | Some (l, rn) -> (l, rn.(0), rn.(1))
    | None -> (0, Array.make (n1 + 1) 0, Array.make (n2 + 1) 0)
  in
  let boxed = lden = 0 in
  let diags =
    Array.init 3 (fun _ ->
        {
          slots = Array.make (2 * (n1 + 1)) (-1);
          rems = (if boxed then Array.make (n1 + 1) Q.zero else [||]);
          lo = max_int;
          hi = -1;
        })
  in
  let via_lo = if keep_vias then Array.make levels 0 else [||] in
  let vias = if keep_vias then Array.make levels Bytes.empty else [||] in
  let fuel = Crs_util.Fuel.meter () in
  let cells = ref 0 and relaxes = ref 0 in
  (* Keep the candidate (t, r) for slot [s] of diagonal [d] iff the slot
     is unreached or the candidate improves its lex order on (t, r).
     The candidate's remainder is [p] over lden, or [r] in the boxed
     tier. *)
  let relax d s t p r via =
    incr relaxes;
    let a = d.slots and base = 2 * s in
    let cur_tv = a.(base) in
    let cur_t = cur_tv asr 3 in
    if
      cur_tv < 0 || t < cur_t
      || (t = cur_t && if boxed then Q.(r < d.rems.(s)) else p < a.(base + 1))
    then begin
      if cur_tv < 0 then begin
        if s < d.lo then d.lo <- s;
        if s > d.hi then d.hi <- s
      end;
      a.(base) <- (t lsl 3) lor via;
      if boxed then d.rems.(s) <- r else a.(base + 1) <- p
    end
  in
  (* A level's diagonal is reused three levels on: mark its span
     unreached. *)
  let retire d =
    for i1 = d.lo to d.hi do
      d.slots.(2 * i1) <- -1
    done;
    d.lo <- max_int;
    d.hi <- -1
  in
  (* Start state: both first jobs active, r = their joint demand. *)
  relax diags.(0) 0 0 (rn1.(0) + rn2.(0))
    (if boxed then Q.add b1.(0) b2.(0) else Q.zero)
    start;
  for level = 0 to levels - 1 do
    let level_cells = !cells in
    let d = diags.(level mod 3) in
    (* d1 receives level + 1 (one job finishes), d2 level + 2 (both). *)
    let d1 = diags.((level + 1) mod 3) and d2 = diags.((level + 2) mod 3) in
    let a = d.slots and lo = d.lo and hi = d.hi in
    let v =
      if keep_vias && lo <= hi then begin
        let v = Bytes.make (hi - lo + 1) unreached in
        via_lo.(level) <- lo;
        vias.(level) <- v;
        v
      end
      else Bytes.empty
    in
    for i1 = lo to hi do
      let i2 = level - i1 in
      let base = 2 * i1 in
      let tv = a.(base) in
      (* Fuel is charged per reachable cell: unreachable cells do no
         work, so they burn no budget. *)
      if tv >= 0 then begin
        Crs_util.Fuel.charge fuel;
        incr cells;
        if keep_vias then Bytes.set v (i1 - lo) (Char.unsafe_chr (tv land 7));
        let t' = (tv asr 3) + 1 in
        if i1 >= n1 && i2 < n2 then
          (* Only processor 1 active: one job per step, leftover
             wasted; the new remainder is just the fresh job's. *)
          relax d1 i1 t' rn2.(i2 + 1) b2.(i2 + 1) only_snd
        else if i2 >= n2 && i1 < n1 then
          relax d1 (i1 + 1) t' rn1.(i1 + 1) b1.(i1 + 1) only_fst
        else if i1 < n1 && i2 < n2 then begin
          let k1 = i1 + 1 and k2 = i2 + 1 in
          let cp = a.(base + 1) in
          if if boxed then Q.(d.rems.(i1) <= one) else cp <= lden then
            relax d2 k1 t' (rn1.(k1) + rn2.(k2))
              (if boxed then Q.add b1.(k1) b2.(k2) else Q.zero)
              finish_both
          else begin
            (* r > 1: finish one job (cost <= 1) and invest the
               leftover in the other, which stays active with
               remainder r - 1. *)
            let m = cp - lden in
            let rm1 = if boxed then Q.sub d.rems.(i1) Q.one else Q.zero in
            relax d1 k1 t' (rn1.(k1) + m)
              (if boxed then Q.add b1.(k1) rm1 else Q.zero)
              finish_fst;
            relax d1 i1 t' (m + rn2.(k2))
              (if boxed then Q.add rm1 b2.(k2) else Q.zero)
              finish_snd
          end
        end
      end
    done;
    (match level_hist with
    | Some h -> Crs_obs.Metrics.observe h (!cells - level_cells)
    | None -> ());
    retire d
  done;
  let d = diags.((n1 + n2) mod 3) in
  let final_tv = d.slots.(2 * n1) in
  if final_tv < 0 then failwith "Opt_two: final state unreachable (bug)";
  {
    final_tv;
    final_r = (if boxed then d.rems.(n1) else Q.of_ints d.slots.((2 * n1) + 1) lden);
    via_lo;
    vias;
    counters = { cells_expanded = !cells; relaxations = !relaxes };
  }

let run_dp ~keep_vias instance =
  check instance;
  (* Per-level state counts feed a log-scale histogram when metrics are
     on; the lookup happens once per solve, never per cell. *)
  let level_hist =
    if Crs_obs.Metrics.enabled () then
      Some (Crs_obs.Metrics.histogram "opt_two.states_per_level")
    else None
  in
  Crs_obs.Trace.with_span_l
    (fun () ->
      [
        ("n1", Crs_obs.Trace.Int (Instance.n_i instance 0));
        ("n2", Crs_obs.Trace.Int (Instance.n_i instance 1));
      ])
    "opt_two.dp"
    (fun () ->
      let b1 = requirements instance 0 and b2 = requirements instance 1 in
      let result = sweep instance level_hist ~keep_vias b1 b2 in
      if Crs_obs.Trace.enabled () then
        Crs_obs.Trace.add_attrs
          [
            ("cells_expanded", Crs_obs.Trace.Int result.counters.cells_expanded);
            ("relaxations", Crs_obs.Trace.Int result.counters.relaxations);
          ];
      (result, b1, b2))

let makespan instance =
  let sw, _, _ = run_dp ~keep_vias:false instance in
  sw.final_tv asr 3

(* Replay the optimal path, tracking the individual remainders (v1, v2)
   of the active jobs to emit concrete share vectors. The walk follows
   via codes backwards (each code determines its parent cell); the
   share arithmetic runs on boxed values in either tier.

   The replay also recomputes the DP's own remainder r along the path
   by its transition rule, checking each transition's guard (Finish_both
   needs r <= 1, Finish_fst/Finish_snd r > 1), that v1 + v2 = r after
   every step, that r at the end is the sweep's final remainder, and
   that the path has as many steps as the makespan. *)
let solve instance =
  let sw, b1, b2 = run_dp ~keep_vias:true instance in
  let n1 = Instance.n_i instance 0 and n2 = Instance.n_i instance 1 in
  let via_at i1 i2 =
    let level = i1 + i2 in
    if level = n1 + n2 then sw.final_tv land 7
    else begin
      let k = i1 - sw.via_lo.(level) and v = sw.vias.(level) in
      if k < 0 || k >= Bytes.length v || Bytes.get v k = unreached then
        failwith "Opt_two.solve: broken parent chain";
      Char.code (Bytes.get v k)
    end
  in
  let rec path i1 i2 acc =
    let via = via_at i1 i2 in
    if via = start then acc
    else
      let pi1, pi2 =
        if via = finish_both then (i1 - 1, i2 - 1)
        else if via = finish_fst || via = only_fst then (i1 - 1, i2)
        else (i1, i2 - 1)
      in
      path pi1 pi2 (via :: acc)
  in
  let steps = Crs_obs.Trace.with_span "opt_two.replay" (fun () -> path n1 n2 []) in
  let diverged () = failwith "Opt_two.solve: replay diverges from the DP (bug)" in
  let v1 = ref b1.(0) and v2 = ref b2.(0) in
  let r = ref (Q.add !v1 !v2) in
  let i1 = ref 0 and i2 = ref 0 in
  let rows =
    List.map
      (fun via ->
        let row =
          if via = finish_both then begin
            if Q.(!r > one) then diverged ();
            let row = [| !v1; !v2 |] in
            incr i1;
            incr i2;
            v1 := b1.(!i1);
            v2 := b2.(!i2);
            r := Q.add !v1 !v2;
            row
          end
          else if via = finish_fst then begin
            if Q.(!r <= one) then diverged ();
            let give2 = Q.sub Q.one !v1 in
            let row = [| !v1; give2 |] in
            incr i1;
            v2 := Q.sub !v2 give2;
            v1 := b1.(!i1);
            r := Q.add !v1 (Q.sub !r Q.one);
            row
          end
          else if via = finish_snd then begin
            if Q.(!r <= one) then diverged ();
            let give1 = Q.sub Q.one !v2 in
            let row = [| give1; !v2 |] in
            incr i2;
            v1 := Q.sub !v1 give1;
            v2 := b2.(!i2);
            r := Q.add (Q.sub !r Q.one) !v2;
            row
          end
          else if via = only_fst then begin
            let row = [| !v1; Q.zero |] in
            incr i1;
            v1 := b1.(!i1);
            r := !v1;
            row
          end
          else begin
            let row = [| Q.zero; !v2 |] in
            incr i2;
            v2 := b2.(!i2);
            r := !v2;
            row
          end
        in
        if not (Q.equal (Q.add !v1 !v2) !r) then diverged ();
        row)
      steps
  in
  let makespan = sw.final_tv asr 3 in
  if not (Q.equal !r sw.final_r) || List.length steps <> makespan then diverged ();
  let schedule =
    if rows = [] then Schedule.empty ~m:2 else Schedule.of_rows (Array.of_list rows)
  in
  { makespan; schedule; counters = sw.counters }
