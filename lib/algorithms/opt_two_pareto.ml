module Q = Crs_num.Rational
open Crs_core

let check instance =
  if Instance.m instance <> 2 then
    invalid_arg "Opt_two_pareto: instance must have exactly 2 processors";
  if not (Instance.is_unit_size instance) then
    invalid_arg "Opt_two_pareto: unit-size jobs only"

let req instance i j =
  if j < Instance.n_i instance i then Job.requirement (Instance.job instance i j)
  else Q.zero

(* Frontier: list of (t, r), t strictly increasing, r strictly
   decreasing. *)
let insert (t, r) frontier =
  let dominated =
    List.exists (fun (t', r') -> t' <= t && Q.(r' <= r)) frontier
  in
  if dominated then frontier
  else
    (t, r)
    :: List.filter (fun (t', r') -> not (t <= t' && Q.(r <= r'))) frontier

(* One live level: each i1's frontier and the span [lo, hi] of i1 its
   relaxations reached, empty when lo > hi. *)
type diag = { cells : (int * Q.t) list array; mutable lo : int; mutable hi : int }

let relax d i1 v =
  d.cells.(i1) <- insert v d.cells.(i1);
  if i1 < d.lo then d.lo <- i1;
  if i1 > d.hi then d.hi <- i1

(* What a sweep leaves: the final cell's frontier, and the max, sum and
   count of the frontier sizes over every reached cell. *)
type swept = { final : (int * Q.t) list; max_size : int; sum_size : int; reached : int }

(* Transitions raise the level i1 + i2 by 1 or 2, so sweeping levels in
   order completes each frontier before it is expanded, and only three
   diagonals are live, as in [Opt_two]: the one being expanded and the
   two it relaxes into. The sweep visits only each level's reached span,
   so fuel, charged per expanded point, bounds time and memory alike. *)
let run_dp instance =
  check instance;
  let n1 = Instance.n_i instance 0 and n2 = Instance.n_i instance 1 in
  let diags =
    Array.init 3 (fun _ -> { cells = Array.make (n1 + 1) []; lo = max_int; hi = -1 })
  in
  relax diags.(0) 0 (0, Q.add (req instance 0 0) (req instance 1 0));
  let fuel = Crs_util.Fuel.meter () in
  let max_size = ref 0 and sum_size = ref 0 and reached = ref 0 in
  let complete d =
    for i1 = d.lo to d.hi do
      match d.cells.(i1) with
      | [] -> ()
      | f ->
        let k = List.length f in
        if k > !max_size then max_size := k;
        sum_size := !sum_size + k;
        incr reached
    done
  in
  for level = 0 to n1 + n2 - 1 do
    let d = diags.(level mod 3) in
    let next = diags.((level + 1) mod 3) and next2 = diags.((level + 2) mod 3) in
    complete d;
    for i1 = d.lo to d.hi do
      let i2 = level - i1 in
      List.iter
        (fun (t, r) ->
          Crs_util.Fuel.charge fuel;
          let t' = t + 1 in
          let fresh1 = req instance 0 (i1 + 1) and fresh2 = req instance 1 (i2 + 1) in
          if i1 >= n1 && i2 < n2 then relax next i1 (t', fresh2)
          else if i2 >= n2 && i1 < n1 then relax next (i1 + 1) (t', fresh1)
          else if i1 < n1 && i2 < n2 then
            if Q.(r <= one) then relax next2 (i1 + 1) (t', Q.add fresh1 fresh2)
            else begin
              relax next (i1 + 1) (t', Q.add fresh1 (Q.sub r Q.one));
              relax next i1 (t', Q.add (Q.sub r Q.one) fresh2)
            end)
        d.cells.(i1);
      d.cells.(i1) <- []
    done;
    d.lo <- max_int;
    d.hi <- -1
  done;
  let last = diags.((n1 + n2) mod 3) in
  complete last;
  { final = last.cells.(n1); max_size = !max_size; sum_size = !sum_size; reached = !reached }

let makespan instance =
  match (run_dp instance).final with
  | [] -> failwith "Opt_two_pareto.makespan: final cell unreachable (bug)"
  | frontier -> List.fold_left (fun acc (t, _) -> min acc t) max_int frontier

let frontier_sizes instance =
  let s = run_dp instance in
  (s.max_size, float_of_int s.sum_size /. float_of_int (max 1 s.reached))
