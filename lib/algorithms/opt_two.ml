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
   array with a 3-word stride:

     word 0 -- t and the 3-bit transition code packed as
               (t lsl 3) lor via; -1 marks unreached
     word 1 -- remainder numerator   (canonical small-tier parts,
     word 2 -- remainder denominator  [Rational]'s S invariant)

   Word 2 = 0 flags a rare bigint-tier remainder spilled to a side
   table keyed by the cell's row-major index i1 (n2 + 1) + i2; a
   diagonal's entries leave the table when it retires. Each diagonal
   also records the span [lo, hi] of i1 its relaxations reached, and
   the sweep visits only that span: a level costs time in proportion to
   its reachable cells, so fuel, charged per reachable cell, bounds a
   solve's time as well as its memory. Levels in order, each over its
   reached span, are the priority queue that closes the paper's Section
   6 as a bucket queue keyed by i1 + i2: only reachable states are
   expanded, and a push or pop costs O(1).

   [solve] keeps the via code of every swept cell, one byte each,
   allocated level by level as the sweep reaches it; the replay walks
   those codes back from the final state. [makespan] keeps none.

   Relaxations on the small-tier fast path run entirely on ints via
   [Smallrat] — no allocation, no [Instance.job] bounds checks (the
   requirement rows are prefetched once) — and fall back to boxed
   [Rational.t] exactly when a value leaves the small tier. Results
   are byte-identical to the boxed pre-rewrite kernel's, which a tier-1
   digest pins: [Smallrat] produces the same canonical parts [Rational]
   would, and the witness replay re-runs the share arithmetic on boxed
   values. *)

module Q = Crs_num.Rational
module SR = Crs_num.Smallrat
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

(* Requirements of processor [i]'s jobs, prefetched once per solve:
   boxed values for the replay and the spill paths, small-tier parts
   for the hot loop. Index n_i holds the zero requirement of the
   paper's "dummy job"; reqq.(k) = 0 flags a bigint-tier requirement
   (then only the boxed array is meaningful). *)
type reqs = { boxed : Q.t array; reqp : int array; reqq : int array }

let prefetch instance i =
  let n = Instance.n_i instance i in
  let boxed =
    Array.init (n + 1) (fun k ->
        if k < n then Job.requirement (Instance.job instance i k) else Q.zero)
  in
  let reqp = Array.make (n + 1) 0 and reqq = Array.make (n + 1) 0 in
  Array.iteri
    (fun k r ->
      if Q.is_small r then begin
        reqp.(k) <- Q.small_num r;
        reqq.(k) <- Q.small_den r
      end)
    boxed;
  { boxed; reqp; reqq }

(* Common-denominator mode: when every requirement is small-tier and
   their denominators have a small lcm L, every remainder the DP can
   form is an exact multiple of 1/L, so the kernel stores plain
   numerators over an implicit L and the hot loop does no gcd work at
   all — adds are int adds, compares are int compares (relaxation
   decisions are on the same exact rationals, so the reachable set,
   counters and schedule are unchanged). The Figure-1/Figure-3
   families and most corpus instances qualify.

   Returns the scaled numerator arrays for both processors, or None
   when the mode doesn't apply (a bigint-tier requirement, lcm past
   [Rational.small_bound], or scaled numerators too large to add a
   few of together without overflow — the pair/spill path handles
   those). *)
let common_den r1 r2 =
  let max_num = 1 lsl 59 in
  let lden = ref 1 and ok = ref true in
  let fold r =
    Array.iter
      (fun q ->
        if q = 0 then ok := false
        else begin
          let l = !lden / Crs_num.Natural.gcd_int !lden q * q in
          if l > Q.small_bound then ok := false else lden := l
        end)
      r.reqq
  in
  fold r1;
  fold r2;
  if not !ok then None
  else begin
    let l = !lden in
    let scale r =
      Array.map2
        (fun p q ->
          let f = l / q in
          if p > max_num / f then ok := false;
          p * f)
        r.reqp r.reqq
    in
    let rn1 = scale r1 and rn2 = scale r2 in
    if !ok then Some (l, rn1, rn2) else None
  end

(* One live level: 3 words per i1 (layout above) and the reached span
   of i1, empty when lo > hi. *)
type diag = { slots : int array; mutable lo : int; mutable hi : int }

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
let sweep instance level_hist ~keep_vias r1 r2 =
  let n1 = Instance.n_i instance 0 and n2 = Instance.n_i instance 1 in
  let w = n2 + 1 in
  let levels = n1 + n2 in
  let diags =
    Array.init 3 (fun _ -> { slots = Array.make (3 * (n1 + 1)) (-1); lo = max_int; hi = -1 })
  in
  let spill : (int, Q.t) Hashtbl.t = Hashtbl.create 16 in
  let via_lo = if keep_vias then Array.make levels 0 else [||] in
  let vias = if keep_vias then Array.make levels Bytes.empty else [||] in
  let fuel = Crs_util.Fuel.meter () in
  let cells = ref 0 and relaxes = ref 0 in
  let slot_r d s key =
    let a = d.slots and base = 3 * s in
    let q = a.(base + 2) in
    if q <> 0 then SR.to_rational a.(base + 1) q else Hashtbl.find spill key
  in
  (* Keep the candidate (t, r) for cell [key], slot [s] of diagonal [d],
     iff the slot is unreached or the candidate improves its lex order
     on (t, r), exactly the boxed kernel's [better]. q = 0 means the
     candidate remainder is the bigint-tier [rbig]. *)
  let relax d s key t p q rbig via =
    incr relaxes;
    let a = d.slots and base = 3 * s in
    let cur_tv = a.(base) in
    let cur_t = cur_tv asr 3 in
    let better =
      cur_tv < 0 || t < cur_t
      || t = cur_t
         &&
         let cq = a.(base + 2) in
         if q <> 0 && cq <> 0 then SR.compare p q a.(base + 1) cq < 0
         else begin
           let cand = if q <> 0 then SR.to_rational p q else rbig in
           Q.(cand < slot_r d s key)
         end
    in
    if better then begin
      if cur_tv < 0 then begin
        if s < d.lo then d.lo <- s;
        if s > d.hi then d.hi <- s
      end;
      a.(base) <- (t lsl 3) lor via;
      if q <> 0 then begin
        if a.(base + 2) = 0 then Hashtbl.remove spill key;
        a.(base + 1) <- p;
        a.(base + 2) <- q
      end
      else begin
        a.(base + 2) <- 0;
        Hashtbl.replace spill key rbig
      end
    end
  in
  (* Boxed results can re-enter the small tier (e.g. an overflowing
     cross product whose gcd shrinks it back); keep the stored tier
     faithful to the value's own. *)
  let relax_box d s key t r via =
    if Q.is_small r then relax d s key t (Q.small_num r) (Q.small_den r) Q.zero via
    else relax d s key t 0 0 r via
  in
  (* A level's diagonal is reused three levels on: drop its spilled
     remainders and mark its span unreached. *)
  let retire d level =
    let a = d.slots in
    for i1 = d.lo to d.hi do
      let base = 3 * i1 in
      if a.(base) >= 0 && a.(base + 2) = 0 then
        Hashtbl.remove spill ((i1 * w) + level - i1);
      a.(base) <- -1;
      a.(base + 2) <- -1
    done;
    d.lo <- max_int;
    d.hi <- -1
  in
  let acc = SR.out () and m1 = SR.out () in
  (* lden <> 0 selects the common-denominator mode: remainder words
     hold numerators over lden, arithmetic is pure int add/compare
     (relax's tie-break compares equal denominators by numerator, so
     no products form). lden = 0 falls back to canonical pairs with
     bigint spill. *)
  let lden, rn1, rn2 =
    match common_den r1 r2 with
    | Some (l, a, b) -> (l, a, b)
    | None -> (0, [||], [||])
  in
  (* Start state: both first jobs active, r = their joint demand. *)
  let d = diags.(0) in
  (if lden <> 0 then relax d 0 0 0 (rn1.(0) + rn2.(0)) lden Q.zero start
   else if
     r1.reqq.(0) <> 0 && r2.reqq.(0) <> 0
     && SR.add acc r1.reqp.(0) r1.reqq.(0) r2.reqp.(0) r2.reqq.(0)
   then relax d 0 0 0 acc.p acc.q Q.zero start
   else relax_box d 0 0 0 (Q.add r1.boxed.(0) r2.boxed.(0)) start);
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
      let idx = (i1 * w) + i2 in
      let base = 3 * i1 in
      let tv = a.(base) in
      (* Fuel is charged per reachable cell: unreachable cells do no
         work, so they burn no budget. *)
      if tv >= 0 then begin
        Crs_util.Fuel.charge fuel;
        incr cells;
        if keep_vias then Bytes.set v (i1 - lo) (Char.unsafe_chr (tv land 7));
        let t' = (tv asr 3) + 1 in
        let cp = a.(base + 1) and cq = a.(base + 2) in
        if i1 >= n1 && i2 < n2 then begin
          (* Only processor 1 active: one job per step, leftover
             wasted; the new remainder is just the fresh job's. *)
          let k = i2 + 1 in
          if lden <> 0 then relax d1 i1 (idx + 1) t' rn2.(k) lden Q.zero only_snd
          else if r2.reqq.(k) <> 0 then
            relax d1 i1 (idx + 1) t' r2.reqp.(k) r2.reqq.(k) Q.zero only_snd
          else relax d1 i1 (idx + 1) t' 0 0 r2.boxed.(k) only_snd
        end
        else if i2 >= n2 && i1 < n1 then begin
          let k = i1 + 1 in
          if lden <> 0 then relax d1 k (idx + w) t' rn1.(k) lden Q.zero only_fst
          else if r1.reqq.(k) <> 0 then
            relax d1 k (idx + w) t' r1.reqp.(k) r1.reqq.(k) Q.zero only_fst
          else relax d1 k (idx + w) t' 0 0 r1.boxed.(k) only_fst
        end
        else if i1 < n1 && i2 < n2 then begin
          let k1 = i1 + 1 and k2 = i2 + 1 in
          if lden <> 0 then begin
            (* Every reachable cell in this mode stores cq = lden;
               the prefetch guard bounds numerator sums, so the int
               arithmetic below cannot overflow. *)
            if cp <= lden then
              relax d2 k1 (idx + w + 1) t' (rn1.(k1) + rn2.(k2)) lden Q.zero
                finish_both
            else begin
              let m = cp - lden in
              relax d1 k1 (idx + w) t' (rn1.(k1) + m) lden Q.zero finish_fst;
              relax d1 i1 (idx + 1) t' (m + rn2.(k2)) lden Q.zero finish_snd
            end
          end
          else begin
            let r_le_one =
              if cq <> 0 then SR.compare_one cp cq <= 0
              else Q.(Hashtbl.find spill idx <= one)
            in
            if r_le_one then begin
              if r1.reqq.(k1) <> 0 && r2.reqq.(k2) <> 0
                 && SR.add acc r1.reqp.(k1) r1.reqq.(k1) r2.reqp.(k2) r2.reqq.(k2)
              then relax d2 k1 (idx + w + 1) t' acc.p acc.q Q.zero finish_both
              else
                relax_box d2 k1 (idx + w + 1) t'
                  (Q.add r1.boxed.(k1) r2.boxed.(k2))
                  finish_both
            end
            else begin
              (* r > 1: finish one job (cost <= 1) and invest the
                 leftover in the other, which stays active with
                 remainder r - 1. *)
              if cq <> 0 && SR.sub_one m1 cp cq then begin
                (if r1.reqq.(k1) <> 0 && SR.add acc r1.reqp.(k1) r1.reqq.(k1) m1.p m1.q
                 then relax d1 k1 (idx + w) t' acc.p acc.q Q.zero finish_fst
                 else
                   relax_box d1 k1 (idx + w) t'
                     (Q.add r1.boxed.(k1) (SR.to_rational m1.p m1.q))
                     finish_fst);
                if r2.reqq.(k2) <> 0 && SR.add acc m1.p m1.q r2.reqp.(k2) r2.reqq.(k2)
                then relax d1 i1 (idx + 1) t' acc.p acc.q Q.zero finish_snd
                else
                  relax_box d1 i1 (idx + 1) t'
                    (Q.add (SR.to_rational m1.p m1.q) r2.boxed.(k2))
                    finish_snd
              end
              else begin
                let rm1 = Q.sub (slot_r d i1 idx) Q.one in
                relax_box d1 k1 (idx + w) t' (Q.add r1.boxed.(k1) rm1) finish_fst;
                relax_box d1 i1 (idx + 1) t' (Q.add rm1 r2.boxed.(k2)) finish_snd
              end
            end
          end
        end
      end
    done;
    (match level_hist with
    | Some h -> Crs_obs.Metrics.observe h (!cells - level_cells)
    | None -> ());
    retire d level
  done;
  let d = diags.((n1 + n2) mod 3) in
  let final_tv = d.slots.(3 * n1) in
  if final_tv < 0 then failwith "Opt_two: final state unreachable (bug)";
  {
    final_tv;
    final_r = slot_r d n1 ((n1 * w) + n2);
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
      let r1 = prefetch instance 0 and r2 = prefetch instance 1 in
      let result = sweep instance level_hist ~keep_vias r1 r2 in
      if Crs_obs.Trace.enabled () then
        Crs_obs.Trace.add_attrs
          [
            ("cells_expanded", Crs_obs.Trace.Int result.counters.cells_expanded);
            ("relaxations", Crs_obs.Trace.Int result.counters.relaxations);
          ];
      (result, r1, r2))

let makespan instance =
  let sw, _, _ = run_dp ~keep_vias:false instance in
  sw.final_tv asr 3

(* Replay the optimal path, tracking the individual remainders (v1, v2)
   of the active jobs to emit concrete share vectors. The walk follows
   via codes backwards (each code determines its parent cell); the
   share arithmetic runs on boxed values, so rows are byte-identical to
   the boxed kernel's.

   The replay also recomputes the DP's own remainder r along the path
   by its transition rule, checking each transition's guard (Finish_both
   needs r <= 1, Finish_fst/Finish_snd r > 1), that v1 + v2 = r after
   every step, that r at the end is the sweep's final remainder, and
   that the path has as many steps as the makespan. *)
let solve instance =
  let sw, r1, r2 = run_dp ~keep_vias:true instance in
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
  let v1 = ref r1.boxed.(0) and v2 = ref r2.boxed.(0) in
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
            v1 := r1.boxed.(!i1);
            v2 := r2.boxed.(!i2);
            r := Q.add !v1 !v2;
            row
          end
          else if via = finish_fst then begin
            if Q.(!r <= one) then diverged ();
            let give2 = Q.sub Q.one !v1 in
            let row = [| !v1; give2 |] in
            incr i1;
            v2 := Q.sub !v2 give2;
            v1 := r1.boxed.(!i1);
            r := Q.add !v1 (Q.sub !r Q.one);
            row
          end
          else if via = finish_snd then begin
            if Q.(!r <= one) then diverged ();
            let give1 = Q.sub Q.one !v2 in
            let row = [| give1; !v2 |] in
            incr i2;
            v1 := Q.sub !v1 give1;
            v2 := r2.boxed.(!i2);
            r := Q.add (Q.sub !r Q.one) !v2;
            row
          end
          else if via = only_fst then begin
            let row = [| !v1; Q.zero |] in
            incr i1;
            v1 := r1.boxed.(!i1);
            r := !v1;
            row
          end
          else begin
            let row = [| Q.zero; !v2 |] in
            incr i2;
            v2 := r2.boxed.(!i2);
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
