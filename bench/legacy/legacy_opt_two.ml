(* FROZEN baseline: the boxed-record Opt_two kernel exactly as it stood
   before the flat-state rewrite (same PR). `bench dp` times the live
   kernel against this copy (the >= 2x gate compares like against
   like), and the differential parity suite in test/ pins makespan,
   schedule-row and counter agreement between the two. Do not "improve"
   this file; re-snapshot it only when intentionally moving the
   baseline. *)

module Q = Crs_num.Rational
open Crs_core

type counters = { cells_expanded : int; relaxations : int }
type solution = { makespan : int; schedule : Schedule.t; counters : counters }

type transition =
  | Start
  | Finish_both  (* both active jobs complete this step *)
  | Finish_fst   (* processor 0's job completes; leftover invested in 1 *)
  | Finish_snd   (* symmetric *)
  | Only_fst     (* processor 1 has no jobs left *)
  | Only_snd

type entry = { t : int; r : Q.t; from : (int * int); via : transition }

let check instance =
  if Instance.m instance <> 2 then
    invalid_arg "Opt_two: instance must have exactly 2 processors";
  if not (Instance.is_unit_size instance) then
    invalid_arg "Opt_two: unit-size jobs only"

(* Requirement of job [j] (0-based) on processor [i]; zero beyond the end
   (the "dummy job" of the paper's formulation). *)
let req instance i j =
  if j < Instance.n_i instance i then Job.requirement (Instance.job instance i j)
  else Q.zero

let better (t1, r1) (t2, r2) = t1 < t2 || (t1 = t2 && Q.(r1 < r2))

let run_dp instance =
  check instance;
  let n1 = Instance.n_i instance 0 and n2 = Instance.n_i instance 1 in
  let table : entry option array array = Array.make_matrix (n1 + 1) (n2 + 1) None in
  let cells = ref 0 and relaxes = ref 0 in
  let relax i1 i2 t r from via =
    incr relaxes;
    match table.(i1).(i2) with
    | Some e when not (better (t, r) (e.t, e.r)) -> ()
    | _ -> table.(i1).(i2) <- Some { t; r; from; via }
  in
  let dp () =
    relax 0 0 0 (Q.add (req instance 0 0) (req instance 1 0)) (-1, -1) Start;
    (* Transitions raise i1+i2 by 1 or 2, so diagonal order finalizes every
       state before it is expanded. *)
    for level = 0 to n1 + n2 - 1 do
      for i1 = max 0 (level - n2) to min level n1 do
        Crs_util.Fuel.charge (Crs_util.Fuel.meter ());
        let i2 = level - i1 in
        match table.(i1).(i2) with
        | None -> ()
        | Some e ->
          incr cells;
          let t' = e.t + 1 in
          let fresh1 = req instance 0 (i1 + 1) and fresh2 = req instance 1 (i2 + 1) in
          if i1 >= n1 && i2 < n2 then
            (* Only processor 1 active: one job per step, leftover wasted. *)
            relax i1 (i2 + 1) t' fresh2 (i1, i2) Only_snd
          else if i2 >= n2 && i1 < n1 then
            relax (i1 + 1) i2 t' fresh1 (i1, i2) Only_fst
          else if i1 < n1 && i2 < n2 then begin
            if Q.(e.r <= one) then
              relax (i1 + 1) (i2 + 1) t' (Q.add fresh1 fresh2) (i1, i2) Finish_both
            else begin
              (* r > 1: finish one job (cost <= 1) and invest the leftover
                 in the other, which stays active with remainder r - 1. *)
              relax (i1 + 1) i2 t' (Q.add fresh1 (Q.sub e.r Q.one)) (i1, i2) Finish_fst;
              relax i1 (i2 + 1) t' (Q.add (Q.sub e.r Q.one) fresh2) (i1, i2) Finish_snd
            end
          end
      done
    done
  in
  dp ();
  (table, { cells_expanded = !cells; relaxations = !relaxes })

let makespan instance =
  let table, _ = run_dp instance in
  let n1 = Instance.n_i instance 0 and n2 = Instance.n_i instance 1 in
  match table.(n1).(n2) with
  | Some e -> e.t
  | None -> failwith "Opt_two.makespan: final state unreachable (bug)"

(* Replay the optimal path, tracking the individual remainders (v1, v2) of
   the active jobs to emit concrete share vectors. *)
let solve instance =
  let table, counters = run_dp instance in
  let n1 = Instance.n_i instance 0 and n2 = Instance.n_i instance 1 in
  let final =
    match table.(n1).(n2) with
    | Some e -> e
    | None -> failwith "Opt_two.solve: final state unreachable (bug)"
  in
  let rec path i1 i2 acc =
    match table.(i1).(i2) with
    | None -> failwith "Opt_two.solve: broken parent chain"
    | Some e ->
      if e.via = Start then acc else path (fst e.from) (snd e.from) (e :: acc)
  in
  let steps = path n1 n2 [] in
  let v1 = ref (req instance 0 0) and v2 = ref (req instance 1 0) in
  let i1 = ref 0 and i2 = ref 0 in
  let rows =
    List.map
      (fun e ->
        let row =
          match e.via with
          | Start -> assert false
          | Finish_both ->
            let row = [| !v1; !v2 |] in
            incr i1;
            incr i2;
            v1 := req instance 0 !i1;
            v2 := req instance 1 !i2;
            row
          | Finish_fst ->
            let give2 = Q.sub Q.one !v1 in
            let row = [| !v1; give2 |] in
            incr i1;
            v2 := Q.sub !v2 give2;
            v1 := req instance 0 !i1;
            row
          | Finish_snd ->
            let give1 = Q.sub Q.one !v2 in
            let row = [| give1; !v2 |] in
            incr i2;
            v1 := Q.sub !v1 give1;
            v2 := req instance 1 !i2;
            row
          | Only_fst ->
            let row = [| !v1; Q.zero |] in
            incr i1;
            v1 := req instance 0 !i1;
            row
          | Only_snd ->
            let row = [| Q.zero; !v2 |] in
            incr i2;
            v2 := req instance 1 !i2;
            row
        in
        (* The replayed remainders must match the stored sufficient
           statistic at the state just reached. *)
        assert (Q.equal (Q.add !v1 !v2) e.r);
        row)
      steps
  in
  let schedule =
    if rows = [] then Schedule.empty ~m:2 else Schedule.of_rows (Array.of_list rows)
  in
  { makespan = final.t; schedule; counters }
