module Q = Crs_num.Rational
open Crs_core

module Key = struct
  type t = int * int * int (* level = i1+i2, i1, i2 *)

  let compare = compare
end

module PQ = Crs_util.Pqueue.Make (Key)

let check instance =
  if Instance.m instance <> 2 then
    invalid_arg "Opt_two_pq: instance must have exactly 2 processors";
  if not (Instance.is_unit_size instance) then
    invalid_arg "Opt_two_pq: unit-size jobs only"

let req instance i j =
  if j < Instance.n_i instance i then Job.requirement (Instance.job instance i j)
  else Q.zero

let better (t1, r1) (t2, r2) = t1 < t2 || (t1 = t2 && Q.(r1 < r2))

type stats = { makespan : int; expanded : int; relaxations : int }

let run instance =
  check instance;
  let n1 = Instance.n_i instance 0 and n2 = Instance.n_i instance 1 in
  let best : (int * int, int * Q.t) Hashtbl.t = Hashtbl.create 64 in
  let queue = ref PQ.empty in
  let expanded = ref 0 and relaxes = ref 0 in
  let relax i1 i2 value =
    incr relaxes;
    let key = (i1, i2) in
    match Hashtbl.find_opt best key with
    | Some old when not (better value old) -> ()
    | _ ->
      Hashtbl.replace best key value;
      queue := PQ.insert (i1 + i2, i1, i2) !queue
  in
  relax 0 0 (0, Q.add (req instance 0 0) (req instance 1 0));
  let visited : (int * int, unit) Hashtbl.t = Hashtbl.create 64 in
  let answer = ref None in
  let fuel = Crs_util.Fuel.meter () in
  while !answer = None do
    match PQ.pop !queue with
    | None -> failwith "Opt_two_pq: queue exhausted before final state (bug)"
    | Some ((_, i1, i2), rest) ->
      queue := rest;
      (* A state may be inserted once per relaxation; its stored value is
         final at the first pop (all predecessors live on strictly
         smaller levels), so later pops are skipped. *)
      let t, r = Hashtbl.find best (i1, i2) in
      if i1 = n1 && i2 = n2 then
        answer := Some { makespan = t; expanded = !expanded; relaxations = !relaxes }
      else if Hashtbl.mem visited (i1, i2) then ()
      else begin
        Hashtbl.replace visited (i1, i2) ();
        incr expanded;
        Crs_util.Fuel.charge fuel;
        let t' = t + 1 in
        let fresh1 = req instance 0 (i1 + 1) and fresh2 = req instance 1 (i2 + 1) in
        if i1 >= n1 then relax i1 (i2 + 1) (t', fresh2)
        else if i2 >= n2 then relax (i1 + 1) i2 (t', fresh1)
        else if Q.(r <= one) then
          relax (i1 + 1) (i2 + 1) (t', Q.add fresh1 fresh2)
        else begin
          relax (i1 + 1) i2 (t', Q.add fresh1 (Q.sub r Q.one));
          relax i1 (i2 + 1) (t', Q.add (Q.sub r Q.one) fresh2)
        end
      end
  done;
  match !answer with
  | Some res -> res
  | None -> assert false

let makespan instance = (run instance).makespan
let states_expanded instance = (run instance).expanded
