(* The paper's m = 2 dynamic program (Section 4) on a flat state layout.

   The DP table is dense over (i1, i2) = jobs completed per processor,
   and the per-cell sufficient statistic is tiny: time t, the combined
   remainder r of the two active jobs, and the transition that produced
   the cell (the parent is derivable from the transition, so it is not
   stored). Instead of an [entry option array array] of boxed records,
   the kernel keeps one flat int array with a 4-word stride per
   row-major cell:

     word 0 -- t and the 3-bit transition code packed as
               (t lsl 3) lor via; -1 marks unreachable
     word 1 -- remainder numerator   (canonical small-tier parts,
     word 2 -- remainder denominator  [Rational]'s S invariant)
     word 3 -- padding, so a cell never straddles a cache line

   Word 2 = 0 flags a rare bigint-tier remainder spilled to a side
   table keyed by cell index. Interleaving matters as much as
   unboxing: the diagonal sweep strides through the table, so parallel
   arrays would cost one cache line per field where this layout pays
   one line per cell (and shares it with a neighbour).

   Relaxations on the small-tier fast path run entirely on ints via
   [Smallrat] — no allocation, no [Instance.job] bounds checks (the
   requirement rows are prefetched once) — and fall back to boxed
   [Rational.t] exactly when a value leaves the small tier. Results
   are byte-identical to the boxed kernel: [Smallrat] produces the
   same canonical parts [Rational] would, and the witness replay
   re-runs the share arithmetic on boxed values. *)

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

type tableau = {
  w : int; (* row stride in cells = n2 + 1 *)
  cells : int array; (* 4 words per cell, see layout above *)
  spill : (int, Q.t) Hashtbl.t;
}

let cell_r tab idx =
  let base = idx lsl 2 in
  let q = tab.cells.(base + 2) in
  if q <> 0 then SR.to_rational tab.cells.(base + 1) q
  else Hashtbl.find tab.spill idx

(* The O(n1 n2) sweep, filling the tableau in diagonal order. It is a
   top-level function rather than a closure handed to the span, so the
   hot loop reads the tableau, [relax] and the requirement rows as
   locals instead of through a closure environment (DESIGN §5g).
   [level_hist] receives each level's expanded-cell count. *)
let sweep instance level_hist =
  let n1 = Instance.n_i instance 0 and n2 = Instance.n_i instance 1 in
  let w = n2 + 1 in
  let size = (n1 + 1) * w in
  let cells_a = Array.make (size * 4) (-1) in
  let tab = { w; cells = cells_a; spill = Hashtbl.create 16 } in
  let r1 = prefetch instance 0 and r2 = prefetch instance 1 in
  let cells = ref 0 and relaxes = ref 0 in
  (* Keep the candidate (t, r) iff the cell is empty or it improves the
     stored lex order on (t, r), exactly the boxed kernel's [better].
     q = 0 means the candidate remainder is the bigint-tier [rbig]. *)
  let relax idx t p q rbig via =
    incr relaxes;
    let base = idx lsl 2 in
    let cur_tv = cells_a.(base) in
    let cur_t = cur_tv asr 3 in
    let better =
      cur_tv < 0 || t < cur_t
      || t = cur_t
         &&
         let cq = cells_a.(base + 2) in
         if q <> 0 && cq <> 0 then SR.compare p q cells_a.(base + 1) cq < 0
         else begin
           let cand = if q <> 0 then SR.to_rational p q else rbig in
           Q.(cand < cell_r tab idx)
         end
    in
    if better then begin
      cells_a.(base) <- (t lsl 3) lor via;
      if q <> 0 then begin
        if cells_a.(base + 2) = 0 then Hashtbl.remove tab.spill idx;
        cells_a.(base + 1) <- p;
        cells_a.(base + 2) <- q
      end
      else begin
        cells_a.(base + 2) <- 0;
        Hashtbl.replace tab.spill idx rbig
      end
    end
  in
  (* Boxed results can re-enter the small tier (e.g. an overflowing
     cross product whose gcd shrinks it back); keep the stored tier
     faithful to the value's own. *)
  let relax_box idx t r via =
    if Q.is_small r then relax idx t (Q.small_num r) (Q.small_den r) Q.zero via
    else relax idx t 0 0 r via
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
  (if lden <> 0 then relax 0 0 (rn1.(0) + rn2.(0)) lden Q.zero start
   else if
     r1.reqq.(0) <> 0 && r2.reqq.(0) <> 0
     && SR.add acc r1.reqp.(0) r1.reqq.(0) r2.reqp.(0) r2.reqq.(0)
   then relax 0 0 acc.p acc.q Q.zero start
   else relax_box 0 0 (Q.add r1.boxed.(0) r2.boxed.(0)) start);
  (* Transitions raise i1+i2 by 1 or 2, so diagonal order finalizes
     every state before it is expanded. *)
  for level = 0 to n1 + n2 - 1 do
    let level_cells = !cells in
    for i1 = max 0 (level - n2) to min level n1 do
      let i2 = level - i1 in
      let idx = (i1 * w) + i2 in
      let base = idx lsl 2 in
      let tv = cells_a.(base) in
      (* Fuel is charged per reachable cell: unreachable cells do no
         work, so they no longer burn budget (tick counts changed at
         the hoist; deterministic-timeout tests pin the new ones). *)
      if tv >= 0 then begin
        Crs_util.Fuel.tick ();
        incr cells;
        let t' = (tv asr 3) + 1 in
        let cp = cells_a.(base + 1) and cq = cells_a.(base + 2) in
        if i1 >= n1 && i2 < n2 then begin
          (* Only processor 1 active: one job per step, leftover
             wasted; the new remainder is just the fresh job's. *)
          let k = i2 + 1 in
          if lden <> 0 then relax (idx + 1) t' rn2.(k) lden Q.zero only_snd
          else if r2.reqq.(k) <> 0 then
            relax (idx + 1) t' r2.reqp.(k) r2.reqq.(k) Q.zero only_snd
          else relax (idx + 1) t' 0 0 r2.boxed.(k) only_snd
        end
        else if i2 >= n2 && i1 < n1 then begin
          let k = i1 + 1 in
          if lden <> 0 then relax (idx + w) t' rn1.(k) lden Q.zero only_fst
          else if r1.reqq.(k) <> 0 then
            relax (idx + w) t' r1.reqp.(k) r1.reqq.(k) Q.zero only_fst
          else relax (idx + w) t' 0 0 r1.boxed.(k) only_fst
        end
        else if i1 < n1 && i2 < n2 then begin
          let k1 = i1 + 1 and k2 = i2 + 1 in
          if lden <> 0 then begin
            (* Every reachable cell in this mode stores cq = lden;
               the prefetch guard bounds numerator sums, so the int
               arithmetic below cannot overflow. *)
            if cp <= lden then
              relax (idx + w + 1) t' (rn1.(k1) + rn2.(k2)) lden Q.zero
                finish_both
            else begin
              let m = cp - lden in
              relax (idx + w) t' (rn1.(k1) + m) lden Q.zero finish_fst;
              relax (idx + 1) t' (m + rn2.(k2)) lden Q.zero finish_snd
            end
          end
          else begin
            let r_le_one =
              if cq <> 0 then SR.compare_one cp cq <= 0
              else Q.(Hashtbl.find tab.spill idx <= one)
            in
            if r_le_one then begin
              if r1.reqq.(k1) <> 0 && r2.reqq.(k2) <> 0
                 && SR.add acc r1.reqp.(k1) r1.reqq.(k1) r2.reqp.(k2) r2.reqq.(k2)
              then relax (idx + w + 1) t' acc.p acc.q Q.zero finish_both
              else
                relax_box (idx + w + 1) t'
                  (Q.add r1.boxed.(k1) r2.boxed.(k2))
                  finish_both
            end
            else begin
              (* r > 1: finish one job (cost <= 1) and invest the
                 leftover in the other, which stays active with
                 remainder r - 1. *)
              if cq <> 0 && SR.sub_one m1 cp cq then begin
                (if r1.reqq.(k1) <> 0 && SR.add acc r1.reqp.(k1) r1.reqq.(k1) m1.p m1.q
                 then relax (idx + w) t' acc.p acc.q Q.zero finish_fst
                 else
                   relax_box (idx + w) t'
                     (Q.add r1.boxed.(k1) (SR.to_rational m1.p m1.q))
                     finish_fst);
                if r2.reqq.(k2) <> 0 && SR.add acc m1.p m1.q r2.reqp.(k2) r2.reqq.(k2)
                then relax (idx + 1) t' acc.p acc.q Q.zero finish_snd
                else
                  relax_box (idx + 1) t'
                    (Q.add (SR.to_rational m1.p m1.q) r2.boxed.(k2))
                    finish_snd
              end
              else begin
                let rm1 = Q.sub (cell_r tab idx) Q.one in
                relax_box (idx + w) t' (Q.add r1.boxed.(k1) rm1) finish_fst;
                relax_box (idx + 1) t' (Q.add rm1 r2.boxed.(k2)) finish_snd
              end
            end
          end
        end
      end
    done;
    match level_hist with
    | Some h -> Crs_obs.Metrics.observe h (!cells - level_cells)
    | None -> ()
  done;
  (tab, r1, r2, { cells_expanded = !cells; relaxations = !relaxes })

let run_dp instance =
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
      let ((_, _, _, c) as result) = sweep instance level_hist in
      if Crs_obs.Trace.enabled () then
        Crs_obs.Trace.add_attrs
          [
            ("cells_expanded", Crs_obs.Trace.Int c.cells_expanded);
            ("relaxations", Crs_obs.Trace.Int c.relaxations);
          ];
      result)

let makespan instance =
  let tab, _, _, _ = run_dp instance in
  let n1 = Instance.n_i instance 0 and n2 = Instance.n_i instance 1 in
  let tv = tab.cells.(((n1 * tab.w) + n2) lsl 2) in
  if tv < 0 then failwith "Opt_two.makespan: final state unreachable (bug)";
  tv asr 3

(* Replay the optimal path, tracking the individual remainders (v1, v2)
   of the active jobs to emit concrete share vectors. The walk follows
   via codes backwards (each code determines its parent cell); the
   share arithmetic runs on boxed values, so rows are byte-identical to
   the boxed kernel's. *)
let solve instance =
  let tab, r1, r2, counters = run_dp instance in
  let n1 = Instance.n_i instance 0 and n2 = Instance.n_i instance 1 in
  let w = tab.w in
  let final_tv = tab.cells.(((n1 * w) + n2) lsl 2) in
  if final_tv < 0 then failwith "Opt_two.solve: final state unreachable (bug)";
  let rec path i1 i2 acc =
    let idx = (i1 * w) + i2 in
    let tv = tab.cells.(idx lsl 2) in
    if tv < 0 then failwith "Opt_two.solve: broken parent chain";
    let via = tv land 7 in
    if via = start then acc
    else
      let pi1, pi2 =
        if via = finish_both then (i1 - 1, i2 - 1)
        else if via = finish_fst || via = only_fst then (i1 - 1, i2)
        else (i1, i2 - 1)
      in
      path pi1 pi2 ((via, idx) :: acc)
  in
  let steps = Crs_obs.Trace.with_span "opt_two.replay" (fun () -> path n1 n2 []) in
  let v1 = ref r1.boxed.(0) and v2 = ref r2.boxed.(0) in
  let i1 = ref 0 and i2 = ref 0 in
  let rows =
    List.map
      (fun (via, idx) ->
        let row =
          if via = finish_both then begin
            let row = [| !v1; !v2 |] in
            incr i1;
            incr i2;
            v1 := r1.boxed.(!i1);
            v2 := r2.boxed.(!i2);
            row
          end
          else if via = finish_fst then begin
            let give2 = Q.sub Q.one !v1 in
            let row = [| !v1; give2 |] in
            incr i1;
            v2 := Q.sub !v2 give2;
            v1 := r1.boxed.(!i1);
            row
          end
          else if via = finish_snd then begin
            let give1 = Q.sub Q.one !v2 in
            let row = [| give1; !v2 |] in
            incr i2;
            v1 := Q.sub !v1 give1;
            v2 := r2.boxed.(!i2);
            row
          end
          else if via = only_fst then begin
            let row = [| !v1; Q.zero |] in
            incr i1;
            v1 := r1.boxed.(!i1);
            row
          end
          else begin
            let row = [| Q.zero; !v2 |] in
            incr i2;
            v2 := r2.boxed.(!i2);
            row
          end
        in
        (* The replayed remainders must match the stored sufficient
           statistic at the state just reached. *)
        assert (Q.equal (Q.add !v1 !v2) (cell_r tab idx));
        row)
      steps
  in
  let schedule =
    if rows = [] then Schedule.empty ~m:2 else Schedule.of_rows (Array.of_list rows)
  in
  { makespan = final_tv asr 3; schedule; counters }

let table_dims instance =
  check instance;
  (Instance.n_i instance 0 + 1, Instance.n_i instance 1 + 1)
