(* campaign-sweep: consecutive `crsched campaign --domains 2` sweeps of
   uniform m = 3, n = 6 instances, greedy-balance and round-robin against
   the exact baseline. Exec runs many small stolen tasks here instead of
   one per request; every sweep also pays for Spec generation, the exact
   baseline recomputed per algorithm, and Report writing. *)

module J = Crs_util.Stable_json

let seeds_per_sweep = 60
let fuel = 2_000_000

let argv ctx ~extra ~domains ~lo ~hi ~out =
  Array.append [|
    ctx.Ctx.crsched; "campaign"; "-f"; "uniform"; "-m"; "3"; "-n"; "6";
    "--seeds"; Printf.sprintf "%d-%d" lo hi;
    "-a"; "greedy-balance"; "-a"; "round-robin"; "--baseline"; "exact";
    "--fuel"; string_of_int fuel; "--domains"; string_of_int domains; "--out"; out;
  |] (Array.of_list extra)

(* The seed range of sweep [i]: disjoint per sweep, chosen by the run seed. *)
let range ctx i =
  let lo = 1 + (ctx.Ctx.seed mod 100_000 * 100_000) + (i * seeds_per_sweep) in
  (lo, lo + seeds_per_sweep - 1)

type sweep = {
  lo : int;
  hi : int;
  wall_s : float;  (** spawn to exit *)
  cpu_s : float;
  maxrss_kb : int;
  summary : J.t;
  item_ns : int list;  (** every record's [wall_ns] *)
}

let int_field j k = match J.member k j with Some (J.Int n) -> n | _ -> 0

(* Start one campaign process; [finish] waits for it and reads what it
   wrote. *)
let start ?(extra = []) ctx ~domains ~lo ~hi ~name =
  let out = Filename.concat ctx.Ctx.dir name in
  let t0 = Host.now_ns () in
  (out, t0, lo, hi, Host.spawn (argv ctx ~extra ~domains ~lo ~hi ~out))

let finish (out, t0, lo, hi, p) =
  let info = Host.wait p in
  let wall_s = Host.seconds_since t0 in
  if info.Host.code <> 0 then
    Host.fail "campaign %d-%d exited with code %d: %s" lo hi info.Host.code (Host.stderr_tail p);
  let summary =
    match J.parse (Host.read_file (Filename.concat out "campaign-summary.json")) with
    | Ok j -> j
    | Error e -> Host.fail "campaign summary: %s" e
  in
  let item_ns =
    Host.read_file (Filename.concat out "campaign.jsonl")
    |> String.split_on_char '\n'
    |> List.filter_map (fun l ->
           if l = "" then None
           else
             match J.parse l with
             | Ok r -> Some (int_field r "wall_ns")
             | Error e -> Host.fail "campaign record: %s" e)
  in
  { lo; hi; wall_s; cpu_s = info.Host.cpu_s; maxrss_kb = info.Host.maxrss_kb; summary; item_ns }

let sweep ?extra ctx ~domains ~lo ~hi ~name = finish (start ?extra ctx ~domains ~lo ~hi ~name)

let digest s = match J.member "digest" s.summary with Some (J.Str d) -> d | _ -> ""

(* Set-up: the wall time of a one-seed campaign. *)
let cold_start ctx =
  let count = ref 0 in
  fun () ->
    let lo, _ = range ctx !count in
    incr count;
    (sweep ctx ~domains:2 ~lo ~hi:lo ~name:(Printf.sprintf "setup%d" !count)).wall_s

let run ctx =
  let next = ref 0 in
  let window =
    Window.run ~seconds:ctx.Ctx.seconds ~segment_s:2.0 ~pids:[]
      ~cold_start:(cold_start ctx) ~starts:16
      ~segment:(fun seg_s ->
        let t0 = Host.now_ns () in
        let rec go acc =
          if Host.seconds_since t0 >= seg_s then List.rev acc
          else begin
            let lo, hi = range ctx !next in
            let s = sweep ctx ~domains:2 ~lo ~hi ~name:(Printf.sprintf "sweep%d" !next) in
            incr next;
            go (s :: acc)
          end
        in
        go [])
  in
  let sweeps = List.concat (Array.to_list window.Window.segments) in
  (* The determinism contract, outside the timed window: the same spec on
     one domain must produce the same payload digest. *)
  let rec one_domain = function
    | a :: b :: rest ->
      let check s = start ctx ~domains:1 ~lo:s.lo ~hi:s.hi ~name:(Printf.sprintf "check%d" s.lo) in
      let ca = check a and cb = check b in
      let ra = finish ca in
      ra :: finish cb :: one_domain rest
    | [ a ] -> [ sweep ctx ~domains:1 ~lo:a.lo ~hi:a.hi ~name:(Printf.sprintf "check%d" a.lo) ]
    | [] -> []
  in
  let wrong =
    List.concat
      (List.mapi
         (fun i (s, one) ->
           let expected = digest one ^ if ctx.Ctx.corrupt_golden && i = 0 then "x" else "" in
           if digest s = expected then []
           else
             [
               Printf.sprintf "seeds %d-%d: digest %s on 2 domains, %s on 1" s.lo s.hi
                 (digest s) expected;
             ])
         (List.combine sweeps (one_domain sweeps)))
  in
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 sweeps in
  let completed = sum (fun s -> int_field s.summary "completed") in
  let applicable =
    sum (fun s -> int_field s.summary "items" - int_field s.summary "not_applicable")
  in
  let failed = sum (fun s -> int_field s.summary "errors" + int_field s.summary "timeouts") in
  let wall = List.fold_left (fun acc s -> acc +. s.wall_s) 0.0 sweeps in
  let timing, samples_note =
    Measure.rate_and_latency window
      (Array.map
         (fun seg ->
           ( List.fold_left (fun acc s -> acc + int_field s.summary "completed") 0 seg,
             List.fold_left (fun acc s -> acc +. s.wall_s) 0.0 seg,
             Array.of_list
               (List.concat_map
                  (fun s -> List.map (fun ns -> float_of_int ns /. 1e6) s.item_ns)
                  seg) ))
         window.Window.segments)
  in
  let cpu = List.fold_left (fun acc s -> acc +. s.cpu_s) 0.0 sweeps in
  {
    Outcome.attempted = applicable;
    failed;
    wrong;
    e2e =
      (Measure.setup_e2e window :: timing)
      @ [ Measure.rss_e2e (List.fold_left (fun acc s -> max acc s.maxrss_kb) 0 sweeps) ];
    probe_ms = Window.probe_ms window;
    notes =
      [
        Window.steal_note window;
        Printf.sprintf
          "items_per_s %.6g 1/s, reported as throughput_rps: %d items completed in %d sweeps \
           of %d seeds"
          (List.hd timing).Outcome.value completed (List.length sweeps) seeds_per_sweep;
        "item " ^ samples_note;
        Printf.sprintf "campaign CPU %.3f s over %.3f s wall (%.2f cores busy)" cpu wall
          (cpu /. wall);
      ];
  }
