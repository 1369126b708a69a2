(* perfbench — the repository benchmark's harness.

   perfbench --workload NAME --seed N --seconds S --trace 0|1
             --crsched PATH --work DIR [--corrupt-golden]

   Runs one workload against the built `crsched` binary, checks every
   answer, prints the metrics with the host probe time and ends with one
   JSON line
   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}.
   Exit code 1 when a correctness check failed, 2 on a usage error. *)

module J = Crs_util.Stable_json

let workloads = [ "exact-cold"; "hot-tier"; "campaign-sweep" ]

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let metric_json (name, unit_, v) =
  if not (Float.is_finite v) then Host.fail "metric %s is not a finite number" name;
  (name, J.obj [ ("value", json_number v); ("unit", J.str unit_) ])

let rec remove_tree path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun e -> remove_tree (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error _ -> ()

let usage () =
  prerr_endline
    "usage: perfbench --workload exact-cold|hot-tier|campaign-sweep --seed N \
     --seconds S --trace 0|1 --crsched PATH --work DIR \
     [--corrupt-golden]";
  exit 2

let () =
  let args = Hashtbl.create 8 in
  let corrupt = ref false in
  let rec parse = function
    | "--corrupt-golden" :: rest ->
      corrupt := true;
      parse rest
    | key :: value :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
      Hashtbl.replace args (String.sub key 2 (String.length key - 2)) value;
      parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let get k = match Hashtbl.find_opt args k with Some v -> v | None -> usage () in
  let workload = get "workload" in
  if not (List.mem workload workloads) then usage ();
  let seed = match int_of_string_opt (get "seed") with Some s -> s | None -> usage () in
  let seconds =
    match float_of_string_opt (get "seconds") with Some s when s > 0.0 -> s | _ -> usage ()
  in
  let trace = match get "trace" with "0" -> false | "1" -> true | _ -> usage () in
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Host.set_subreaper ();
  let work = get "work" in
  (try Unix.mkdir work 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let dir = Filename.concat work (Printf.sprintf "run-%d" (Unix.getpid ())) in
  Unix.mkdir dir 0o755;
  let ctx =
    {
      Ctx.crsched = get "crsched";
      dir;
      seed;
      seconds;
      corrupt_golden = !corrupt;
    }
  in
  let finish () =
    Host.kill_children ();
    remove_tree dir
  in
  let guarded f =
    try
      let r = f () in
      finish ();
      r
    with e ->
      finish ();
      Printf.eprintf "perfbench: %s failed: %s\n%!" workload (Printexc.to_string e);
      exit 3
  in
  let result ~correct ~attempted ~failed metrics =
    print_endline
      (J.obj
         [
           ("correct", J.bool correct);
           ("attempted", J.int attempted);
           ("failed", J.int failed);
           ("metrics", J.obj (List.map metric_json metrics));
         ]);
    exit (if correct then 0 else 1)
  in
  if trace then begin
    let trace_file = Filename.concat work (Printf.sprintf "trace-%s.jsonl" workload) in
    let metrics, attempted, failed, wrong, probe_ms =
      guarded (fun () -> Traced.run ctx ~workload ~trace_file)
    in
    Printf.printf "traced run for %s, seed %d, host.probe_ms %.3f; spans in %s\n" workload seed
      probe_ms trace_file;
    List.iter
      (fun (mt : Traced.metric) ->
        Printf.printf "%-36s %14.6g %s\n" mt.Traced.name mt.Traced.value mt.Traced.unit_)
      metrics;
    List.iter (Printf.printf "WRONG: %s\n") wrong;
    result ~correct:(wrong = []) ~attempted ~failed
      (List.map
         (fun (mt : Traced.metric) -> (mt.Traced.name, mt.Traced.unit_, mt.Traced.value))
         metrics)
  end;
  let outcome =
    guarded (fun () ->
        match workload with
        | "exact-cold" -> Exact_cold.run ctx
        | "hot-tier" -> Hot_tier.run ctx
        | _ -> Campaign_sweep.run ctx)
  in
  Printf.printf
    "workload %s, seed %d, %g s window, host.probe_ms %.3f (%d slices kept with the program busy)\n"
    workload seed seconds outcome.Outcome.probe_ms !Host.disturbed;
  let error_rate =
    float_of_int outcome.Outcome.failed /. float_of_int (max 1 outcome.Outcome.attempted)
  in
  List.iter
    (fun (m : Outcome.e2e) -> Printf.printf "%-16s %14.6g %s\n" m.name m.value m.unit_)
    (outcome.Outcome.e2e @ [ { Outcome.name = "error_rate"; unit_ = "1"; value = error_rate } ]);
  List.iter print_endline outcome.Outcome.notes;
  List.iter (Printf.printf "WRONG: %s\n") outcome.Outcome.wrong;
  result ~correct:(outcome.Outcome.wrong = []) ~attempted:outcome.Outcome.attempted
    ~failed:outcome.Outcome.failed
    (List.map (fun (m : Outcome.e2e) -> (m.name, m.unit_, m.value)) outcome.Outcome.e2e)
