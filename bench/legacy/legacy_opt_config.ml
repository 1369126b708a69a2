(* FROZEN baseline: the hashtable-of-records Opt_config kernel exactly
   as it stood before the flat-key / frontier-sweep rewrite (same PR),
   minus the tracing hooks (disabled-tracing cost is ~0.5%, noise
   against the 2x gate). `bench dp` times the live kernel against this
   copy, and the parity suite pins makespan and counter agreement plus
   certification of both witnesses. Do not "improve" this file;
   re-snapshot it only when intentionally moving the baseline. *)

module Q = Crs_num.Rational
open Crs_core

type stats = { layers : int list; generated : int }
type solution = { makespan : int; schedule : Schedule.t; stats : stats }

type config = { j : int array; v : Q.t array }
(* j.(i) = jobs completed on processor i; v.(i) = remaining requirement of
   the active job (0 when the processor is done). *)

type node = { config : config; parent : node option; shares : Q.t array }

let req instance i k =
  if k < Instance.n_i instance i then Job.requirement (Instance.job instance i k)
  else Q.zero

let initial instance =
  let m = Instance.m instance in
  { j = Array.make m 0; v = Array.init m (fun i -> req instance i 0) }

let is_final instance c =
  let m = Instance.m instance in
  let rec go i = i >= m || (c.j.(i) >= Instance.n_i instance i && go (i + 1)) in
  go 0

(* Domination (Lemma 4 spirit): within one time layer, [a] dominates [b]
   iff per processor a is strictly ahead in completed jobs or on the same
   job with no more remaining work. *)
let dominates a b =
  let m = Array.length a.j in
  let rec go i =
    i >= m
    || ((a.j.(i) > b.j.(i) || (a.j.(i) = b.j.(i) && Q.(a.v.(i) <= b.v.(i)))) && go (i + 1))
  in
  go 0

let successors instance c =
  let m = Instance.m instance in
  let actives = List.filter (fun i -> c.j.(i) < Instance.n_i instance i) (Crs_util.Misc.range m) in
  let result = ref [] in
  let emit finished partial =
    (* [finished] : processor list whose active jobs complete this step;
       [partial] : optional (processor, invested amount). *)
    let j = Array.copy c.j and v = Array.copy c.v in
    let shares = Array.make m Q.zero in
    List.iter
      (fun i ->
        shares.(i) <- c.v.(i);
        j.(i) <- c.j.(i) + 1;
        v.(i) <- req instance i j.(i))
      finished;
    (match partial with
    | None -> ()
    | Some (p, delta) ->
      shares.(p) <- delta;
      v.(p) <- Q.sub c.v.(p) delta);
    result := ({ j; v }, shares) :: !result
  in
  (* Enumerate non-empty subsets of active processors as finish sets. *)
  let actives_arr = Array.of_list actives in
  let k = Array.length actives_arr in
  for mask = 1 to (1 lsl k) - 1 do
    let finished = ref [] in
    let cost = ref Q.zero in
    for b = 0 to k - 1 do
      if mask land (1 lsl b) <> 0 then begin
        finished := actives_arr.(b) :: !finished;
        cost := Q.add !cost c.v.(actives_arr.(b))
      end
    done;
    if Q.(!cost <= one) then begin
      let leftover = Q.sub Q.one !cost in
      let others = List.filter (fun i -> not (List.mem i !finished)) actives in
      if others = [] || Q.is_zero leftover then emit !finished None
      else begin
        (* Non-wasting: the leftover must go to some still-active job it
           cannot finish; if it could finish one, the larger finish set
           covers that choice. *)
        List.iter
          (fun p -> if Q.(c.v.(p) > leftover) then emit !finished (Some (p, leftover)))
          others
      end
    end
  done;
  !result

let solve ?(prune = true) instance =
  if not (Instance.is_unit_size instance) then
    invalid_arg "Opt_config: unit-size jobs only";
  let start = { config = initial instance; parent = None; shares = [||] } in
  if is_final instance start.config then
    { makespan = 0; schedule = Schedule.empty ~m:(Instance.m instance);
      stats = { layers = []; generated = 0 } }
  else begin
    let seen : (config, unit) Hashtbl.t = Hashtbl.create 1024 in
    Hashtbl.replace seen start.config ();
    let generated = ref 0 in
    let layer_sizes = ref [] in
    let max_layers = Instance.total_jobs instance + 1 in
    let expand_layer layer =
      (* Expand every node; merge duplicates keeping an arbitrary parent
         (all parents at the same t are equally good). *)
      let next : (config, node) Hashtbl.t = Hashtbl.create 256 in
      List.iter
        (fun node ->
          List.iter
            (fun (cfg, shares) ->
              Crs_util.Fuel.charge (Crs_util.Fuel.meter ());
              incr generated;
              if not (Hashtbl.mem seen cfg) && not (Hashtbl.mem next cfg) then
                Hashtbl.replace next cfg { config = cfg; parent = Some node; shares })
            (successors instance node.config))
        layer;
      let candidates = Hashtbl.fold (fun _ n acc -> n :: acc) next [] in
      (* Mutual domination forces equality, and equal configs were
         merged above, so discarding every dominated candidate never
         empties a non-empty layer. *)
      let survivors =
        if not prune then candidates
        else
          List.filter
            (fun n ->
              not
                (List.exists
                   (fun n' -> n' != n && dominates n'.config n.config)
                   candidates))
            candidates
      in
      List.iter (fun n -> Hashtbl.replace seen n.config ()) survivors;
      layer_sizes := List.length survivors :: !layer_sizes;
      survivors
    in
    let rec grow layer t =
      if t > max_layers then
        failwith "Opt_config.solve: exceeded layer budget (bug)"
      else begin
        let survivors = expand_layer layer in
        match List.find_opt (fun n -> is_final instance n.config) survivors with
        | Some final -> (t, final)
        | None ->
          if survivors = [] then
            failwith "Opt_config.solve: dead end (bug)"
          else grow survivors (t + 1)
      end
    in
    let makespan, final = grow [ start ] 1 in
    let rec collect node acc =
      match node.parent with
      | None -> acc
      | Some p -> collect p (node.shares :: acc)
    in
    let rows = collect final [] in
    let schedule = Schedule.of_rows (Array.of_list rows) in
    {
      makespan;
      schedule;
      stats = { layers = List.rev !layer_sizes; generated = !generated };
    }
  end

let makespan ?prune instance = (solve ?prune instance).makespan
