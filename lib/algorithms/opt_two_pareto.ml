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

let run_dp instance =
  check instance;
  let n1 = Instance.n_i instance 0 and n2 = Instance.n_i instance 1 in
  let table = Array.make_matrix (n1 + 1) (n2 + 1) [] in
  table.(0).(0) <- [ (0, Q.add (req instance 0 0) (req instance 1 0)) ];
  let fuel = Crs_util.Fuel.meter () in
  for level = 0 to n1 + n2 - 1 do
    for i1 = max 0 (level - n2) to min level n1 do
      let i2 = level - i1 in
      List.iter
        (fun (t, r) ->
          Crs_util.Fuel.charge fuel;
          let t' = t + 1 in
          let fresh1 = req instance 0 (i1 + 1) and fresh2 = req instance 1 (i2 + 1) in
          let relax a b v = table.(a).(b) <- insert v table.(a).(b) in
          if i1 >= n1 && i2 < n2 then relax i1 (i2 + 1) (t', fresh2)
          else if i2 >= n2 && i1 < n1 then relax (i1 + 1) i2 (t', fresh1)
          else if i1 < n1 && i2 < n2 then
            if Q.(r <= one) then
              relax (i1 + 1) (i2 + 1) (t', Q.add fresh1 fresh2)
            else begin
              relax (i1 + 1) i2 (t', Q.add fresh1 (Q.sub r Q.one));
              relax i1 (i2 + 1) (t', Q.add (Q.sub r Q.one) fresh2)
            end)
        table.(i1).(i2)
    done
  done;
  table

let makespan instance =
  let table = run_dp instance in
  let n1 = Instance.n_i instance 0 and n2 = Instance.n_i instance 1 in
  match table.(n1).(n2) with
  | [] -> failwith "Opt_two_pareto.makespan: final cell unreachable (bug)"
  | frontier -> List.fold_left (fun acc (t, _) -> min acc t) max_int frontier

let frontier_sizes instance =
  let table = run_dp instance in
  let sizes = ref [] in
  Array.iter
    (Array.iter (fun f -> if f <> [] then sizes := List.length f :: !sizes))
    table;
  let sizes = !sizes in
  let total = List.fold_left ( + ) 0 sizes in
  ( List.fold_left max 0 sizes,
    float_of_int total /. float_of_int (max 1 (List.length sizes)) )
