module Q = Crs_num.Rational
open Crs_core
module Registry = Crs_algorithms.Registry

type t = {
  name : string;
  about : string;
  applies : Instance.t -> bool;
  check : Instance.t -> (unit, string) result;
}

(* The paper's approximation guarantees as data: name -> (fun m ->
   (num, den)) meaning makespan * den <= num * optimum. *)
let approx_bounds =
  [
    (Registry.Names.greedy_balance, fun m -> ((2 * m) - 1, m));
    (Registry.Names.round_robin, fun _ -> (2, 1));
  ]

let optimal_makespan = Crs_algorithms.Solver.optimal_makespan
let unit_size = Instance.is_unit_size

(* Exact solvers are exponential; every oracle that runs one guards on
   instance size so a fuzz sweep cannot wander into hour-long solves.
   The fuel budget is the hard backstop; this is the soft one. *)
let small instance = Instance.total_jobs instance <= 10 && Instance.m instance <= 5

let exact_agreement =
  {
    name = "exact-agreement";
    about = "all applicable exact-kind solvers report one makespan";
    applies = (fun i -> unit_size i && small i);
    check =
      (fun instance ->
        let results =
          List.filter_map
            (fun solver ->
              if solver.Registry.kind <> Registry.Exact then None
              else
                match Registry.run solver instance with
                | Error _ -> None
                | Ok out -> Some (solver.Registry.name, out.Registry.makespan))
            Registry.all
        in
        match results with
        | [] | [ _ ] -> Ok ()
        | (ref_name, ref_ms) :: rest -> (
          match List.find_opt (fun (_, ms) -> ms <> ref_ms) rest with
          | None -> Ok ()
          | Some (bad_name, bad_ms) ->
            Error
              (Printf.sprintf "%s = %d but %s = %d" ref_name ref_ms bad_name
                 bad_ms)));
  }

let witness_certified =
  {
    name = "witness-certified";
    about = "every witness schedule passes the independent certifier";
    (* Policy witnesses are cheap, so the guard is looser than [small];
       the exponential exact solvers still only run on small instances. *)
    applies = (fun i -> Instance.total_jobs i <= 40 && Instance.m i <= 8);
    check =
      (fun instance ->
        let exception Bad of string in
        try
          List.iter
            (fun solver ->
              if
                solver.Registry.witness
                && (solver.kind <> Registry.Exact || small instance)
              then
                match Registry.run solver instance with
                | Error _ -> ()
                | Ok { Registry.schedule = None; _ } ->
                  raise (Bad (solver.name ^ ": no witness"))
                | Ok { Registry.schedule = Some schedule; makespan; _ } -> (
                  match Certify.check instance schedule ~claimed:makespan with
                  | Ok _ -> ()
                  | Error msg -> raise (Bad (solver.name ^ ": " ^ msg))))
            Registry.all;
          Ok ()
        with Bad msg -> Error msg);
  }

let approx_bounds_hold =
  {
    name = "approx-bounds";
    about = "optimum <= makespan <= bound * optimum per registered policy";
    applies = (fun i -> unit_size i && small i);
    check =
      (fun instance ->
        let opt = optimal_makespan instance in
        let exception Bad of string in
        try
          List.iter
            (fun (name, bound) ->
              match Registry.run (Registry.find_exn name) instance with
              | Error _ -> ()
              | Ok { Registry.makespan = ms; _ } ->
                let num, den = bound (Instance.m instance) in
                if ms < opt then
                  raise
                    (Bad
                       (Printf.sprintf "%s = %d below optimum %d" name ms opt));
                if ms * den > num * opt then
                  raise
                    (Bad
                       (Printf.sprintf "%s = %d exceeds %d/%d * optimum %d" name
                          ms num den opt)))
            approx_bounds;
          Ok ()
        with Bad msg -> Error msg);
  }

let permutation_invariance =
  {
    name = "permutation-invariance";
    about = "optimal makespan is invariant under processor reversal";
    applies = (fun i -> unit_size i && small i && Instance.m i >= 2);
    check =
      (fun instance ->
        let m = Instance.m instance in
        let reversed =
          Instance.sub_processors instance (List.init m (fun i -> m - 1 - i))
        in
        let a = optimal_makespan instance and b = optimal_makespan reversed in
        if a = b then Ok ()
        else
          Error
            (Printf.sprintf "optimum %d but %d after reversing processors" a b));
  }

let zero_pad_instance instance =
  Instance.concat_processors instance
    (Instance.create [| [| Job.unit Q.zero |] |])

let zero_pad_invariance =
  {
    name = "zero-pad";
    about = "a new processor with one zero-requirement job keeps the optimum";
    applies =
      (fun i -> unit_size i && small i && Instance.total_jobs i >= 1);
    check =
      (fun instance ->
        let a = optimal_makespan instance in
        let b = optimal_makespan (zero_pad_instance instance) in
        if a = b then Ok ()
        else
          Error
            (Printf.sprintf
               "optimum %d but %d after zero-requirement padding" a b));
  }

let raise_requirements instance =
  Instance.map_jobs
    (fun _ _ job ->
      Job.make
        ~requirement:
          (Q.min Q.one (Q.mul (Q.of_ints 3 2) (Job.requirement job)))
        ~size:(Job.size job))
    instance

let requirement_monotonicity =
  {
    name = "monotonicity";
    about = "raising requirements (r -> min(1, 3r/2)) never lowers the optimum";
    applies = (fun i -> unit_size i && small i);
    check =
      (fun instance ->
        let a = optimal_makespan instance in
        let b = optimal_makespan (raise_requirements instance) in
        if b >= a then Ok ()
        else
          Error
            (Printf.sprintf
               "optimum dropped from %d to %d under a requirement increase" a b));
  }

let all =
  [
    exact_agreement;
    witness_certified;
    approx_bounds_hold;
    permutation_invariance;
    zero_pad_invariance;
    requirement_monotonicity;
  ]

let names = List.map (fun o -> o.name) all
let find wanted = List.find_opt (fun o -> String.equal o.name wanted) all

let differential ~name ?(about = "candidate = reference")
    ?(applies = fun _ -> true) ~reference ~candidate () =
  {
    name;
    about;
    applies;
    check =
      (fun instance ->
        let r = reference instance and c = candidate instance in
        if r = c then Ok ()
        else Error (Printf.sprintf "candidate = %d but reference = %d" c r));
  }
