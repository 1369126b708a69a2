(* exact-cold: `crsched serve` with default flags, two closed-loop
   connections, every request a distinct instance solved by `optimal` —
   half m = 2 (Opt_two, 60-120 jobs per processor), half m = 3
   (Opt_config, 4-6 jobs), half of all with the witness. The memo cache
   never hits, so the DP kernels do nearly all of the work. *)

open Crs_core
module J = Crs_util.Stable_json
module R = Crs_algorithms.Registry
module Gen = Crs_generators.Random_gen

let m2 = { Gen.m = 2; jobs_min = 60; jobs_max = 120; granularity = 20; allow_zero = false }
let m3 = { Gen.m = 3; jobs_min = 4; jobs_max = 6; granularity = 20; allow_zero = false }

let solve_line ?(algorithm = R.Names.optimal) inst ~witness =
  J.obj
    [
      ("proto", J.str Crs_serve.Protocol.version);
      ("kind", J.str "solve");
      ("instance", J.str (Instance.to_string inst));
      ("algorithm", J.str algorithm);
      ("witness", J.bool witness);
    ]

(* The request stream of a seed: request [k] is m = 2 for even [k], m = 3
   for odd, witness by coin flip, and no two requests share a canonical
   key. Calling [stream] again replays the same sequence. *)
let stream ctx =
  let rng = Ctx.rng ctx 1 in
  let seen = Hashtbl.create 4096 in
  let k = ref 0 in
  let rec next () =
    let inst = Gen.instance ~spec:(if !k land 1 = 0 then m2 else m3) rng in
    let witness = Random.State.bool rng in
    let key = Digest.string (Crs_serve.Canon.key inst) in
    if Hashtbl.mem seen key then next ()
    else begin
      Hashtbl.add seen key ();
      incr k;
      (inst, witness)
    end
  in
  next

(* A second exact solver, independent of the kernels the server runs. *)
let reference_makespan inst =
  let name = if Instance.m inst = 2 then R.Names.opt_two_pareto else R.Names.brute_force in
  (R.solve (R.find_exn name) inst).R.makespan

let check ~corrupt (inst, witness) response =
  match response with
  | None -> Outcome.Not_ok "lost: connection closed"
  | Some line -> (
    match J.parse line with
    | Error e -> Outcome.Wrong ("unparsable response: " ^ e)
    | Ok j -> (
      match (J.member "status" j, J.member "makespan" j) with
      | Some (J.Str "ok"), Some (J.Int ms) -> (
        let expected = reference_makespan inst + if corrupt then 1 else 0 in
        if ms <> expected then
          Outcome.Wrong (Printf.sprintf "makespan %d, reference solver says %d" ms expected)
        else
          match (witness, J.member "schedule" j) with
          | false, None -> Outcome.Pass
          | false, Some _ -> Outcome.Wrong "schedule returned without witness request"
          | true, Some (J.Str s) -> (
            match Schedule.of_string s with
            | Error e -> Outcome.Wrong ("witness does not parse: " ^ e)
            | Ok sched -> (
              match
                Crs_fuzz.Certify.check (Crs_serve.Canon.canonicalize inst) sched ~claimed:ms
              with
              | Ok _ -> Outcome.Pass
              | Error e -> Outcome.Wrong ("witness fails certification: " ^ e)))
          | true, _ -> Outcome.Wrong "witness requested but missing")
      | Some (J.Str status), _ -> Outcome.Not_ok status
      | _ -> Outcome.Wrong ("malformed response: " ^ line)))

let ok_status line =
  match J.parse line with
  | Ok j -> J.member "status" j = Some (J.Str "ok")
  | Error _ -> false

(* Spawn to first answered request of a server started for that alone. *)
let cold_start ctx =
  let first =
    solve_line ~witness:true
      (Gen.instance ~spec:{ m3 with jobs_min = 4; jobs_max = 4 } (Ctx.rng ctx 2))
  in
  let count = ref 0 in
  fun () ->
    incr count;
    let t0 = Host.now_ns () in
    let tier =
      Tier.serve ~crsched:ctx.Ctx.crsched ~dir:ctx.Ctx.dir ~name:(Printf.sprintf "cold%d" !count)
    in
    Tier.await_ready tier;
    let conn = Load.Conn.connect tier.Tier.socket in
    let answer = Load.Conn.rpc conn first in
    let setup = Host.seconds_since t0 in
    if not (ok_status answer) then Host.fail "first request failed: %s" answer;
    Load.Conn.close conn;
    Tier.kill tier;
    setup

type state = {
  mutable lines : string array;
  mutable made : int;
  mutable rate : float;  (** requests per second of the last segment *)
}

let run ctx =
  let tier = Tier.serve ~crsched:ctx.Ctx.crsched ~dir:ctx.Ctx.dir ~name:"timed" in
  Tier.await_ready tier;
  let conns = Array.init 2 (fun _ -> Load.Conn.connect tier.Tier.socket) in
  let next = stream ctx in
  let st = { lines = [||]; made = 0; rate = 1000.0 } in
  (* Top the stream up between segments (the program is idle then) to
     twice what the last segment's rate would need. *)
  let ensure from n =
    let want = from + n in
    if want > Array.length st.lines then begin
      let a = Array.make want "" in
      Array.blit st.lines 0 a 0 st.made;
      st.lines <- a
    end;
    while st.made < want do
      let inst, witness = next () in
      st.lines.(st.made) <- solve_line inst ~witness;
      st.made <- st.made + 1
    done
  in
  let used = ref 0 in
  let window =
    Window.run ~seconds:ctx.Ctx.seconds ~segment_s:2.0
      ~pids:[ Tier.pid tier ] ~cold_start:(cold_start ctx) ~starts:4
      ~segment:(fun seg_s ->
        ensure !used (max 200 (int_of_float (2.0 *. st.rate *. seg_s)));
        let made = st.made in
        let seg =
          Load.closed_loop conns ~seconds:seg_s
            ~next:(Load.cursor ~from:!used (fun k -> if k < made then Some st.lines.(k) else None))
        in
        Array.iter (fun s -> st.lines.(s.Load.index) <- "") seg.Load.samples;
        used := !used + Array.length seg.Load.samples;
        st.rate <- float_of_int (Array.length seg.Load.samples) /. seg.Load.wall_s;
        seg)
  in
  let rss_kb = Host.vm_hwm_kb (Tier.pid tier) in
  let stats = Tier.stats conns.(1) in
  Load.Conn.close conns.(1);
  Tier.shutdown tier conns.(0);
  (* Checks, outside the timed window: replay the stream and compare every
     answer against the independent solver and certifier. *)
  let replay = stream ctx in
  let samples = Load.all_samples window.Window.segments in
  (* Every answer is checked, a thousand at a time, each chunk split over
     two domains. Sample [i] answers stream request [i]: segments take
     consecutive indices. *)
  let n_samples = Array.length samples in
  let rec check_from i acc =
    if i >= n_samples then List.rev acc
    else begin
      let requests = Array.init (min 1000 (n_samples - i)) (fun _ -> replay ()) in
      let run lo hi =
        List.init (hi - lo) (fun k ->
            let j = i + lo + k in
            assert (samples.(j).Load.index = j);
            check
              ~corrupt:(ctx.Ctx.corrupt_golden && j = 0)
              requests.(lo + k) samples.(j).Load.response)
      in
      let m = Array.length requests in
      let other = Domain.spawn (fun () -> run (m / 2) m) in
      let mine = run 0 (m / 2) in
      check_from (i + m) (List.rev_append (mine @ Domain.join other) acc)
    end
  in
  let verdicts = check_from 0 [] in
  let failed, wrong = Outcome.tally verdicts in
  let hits = Tier.int_at stats [ "cache"; "hits" ] in
  let wrong =
    if hits <> 0 then Printf.sprintf "cache hits %d on distinct keys" hits :: wrong else wrong
  in
  let timing, samples_note = Measure.serve_e2e window in
  {
    Outcome.attempted = Array.length samples;
    failed;
    wrong;
    e2e = (Measure.setup_e2e window :: timing) @ [ Measure.rss_e2e rss_kb ];
    probe_ms = Window.probe_ms window;
    notes = [ Window.steal_note window; samples_note ];
  }
