(* hot-tier: `crsched balance --shards 2 --workers 1`, warm-started from
   crs-warm/1 state, two closed-loop connections. Requests come from a
   fixed key set that fits each shard's cache, each sent as the base
   instance or a canonically equivalent variant (rows permuted, zero
   padding rows added), so every answer is a cache hit: Protocol, Canon,
   the Cache read path, the Server frontend and the Balancer hop do all
   the work and the kernels none. *)

open Crs_core
module Gen = Crs_generators.Random_gen

let keys = 192
let variants = 4
let shards = 2

let key_spec rng =
  let spec = { Gen.m = 2; jobs_min = 3; jobs_max = 8; granularity = 10; allow_zero = false } in
  if Random.State.bool rng then spec else { spec with m = 3; jobs_max = 5 }

let shuffle rng a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* Variant [v] of a base instance: 0 as is, bit 0 rows permuted, bit 1
   one or two zero-requirement padding rows inserted. *)
let variant rng inst v =
  let rows = Instance.rows inst in
  let rows = if v land 1 = 1 then shuffle rng rows else rows in
  let rows =
    if v land 2 = 0 then rows
    else
      let pad = [| Job.unit Crs_num.Rational.zero |] in
      let rows = ref (Array.to_list rows) in
      for _ = 1 to 1 + Random.State.int rng 2 do
        let at = Random.State.int rng (List.length !rows + 1) in
        rows :=
          List.filteri (fun i _ -> i < at) !rows @ [ pad ] @ List.filteri (fun i _ -> i >= at) !rows
      done;
      Array.of_list !rows
  in
  Instance.create rows

type inputs = {
  bases : string array;  (** one line per key: the warm-up set *)
  pool : string array;  (** every variant line, [keys * variants] *)
  order : int array;  (** the request stream, as indices into [pool] *)
}

let inputs ctx =
  let rng = Ctx.rng ctx 3 in
  let base =
    Array.init keys (fun _ -> (Gen.instance ~spec:(key_spec rng) rng, Random.State.bool rng))
  in
  let line (inst, witness) = Exact_cold.solve_line inst ~witness in
  {
    bases = Array.map line base;
    pool =
      Array.init (keys * variants) (fun i ->
          let inst, witness = base.(i / variants) in
          line (variant rng inst (i mod variants), witness));
    order = Array.init 65536 (fun _ -> Random.State.int rng (keys * variants));
  }

(* Expected bytes for every pool line, from one in-process Server. *)
let goldens pool =
  let server = Crs_serve.Server.create Crs_serve.Server.default_config in
  let g = Array.map (Crs_serve.Server.handle_line server) pool in
  Crs_serve.Server.drain server;
  g

let start ctx ~warm name =
  Tier.balance ~crsched:ctx.Ctx.crsched ~dir:ctx.Ctx.dir ~name ~shards ~warm

(* Write the warm state the way an operator gets it: run a tier once over
   the key set and drain it, so each shard snapshots its own keys. *)
let prime ctx ~warm inputs =
  let tier = start ctx ~warm "prime" in
  Tier.await_ready tier;
  let conn = Load.Conn.connect tier.Tier.socket in
  Array.iter (fun l -> ignore (Load.Conn.rpc conn l)) inputs.bases;
  Tier.shutdown tier conn

let warm_check stats =
  let per_shard =
    match Tier.path stats [ "balancer"; "shard" ] with
    | Some (Crs_util.Stable_json.List l) -> l
    | _ -> []
  in
  let replayed =
    List.fold_left (fun acc s -> acc + Tier.int_at s [ "warm"; "replayed" ]) 0 per_shard
  in
  let all_done =
    List.for_all
      (fun s -> Tier.path s [ "warm"; "done" ] = Some (Crs_util.Stable_json.Bool true))
      per_shard
  in
  if List.length per_shard <> shards || not all_done || replayed <> keys then
    [
      Printf.sprintf "warm start incomplete: %d/%d keys replayed over %d shards" replayed keys
        (List.length per_shard);
    ]
  else []

(* Spawn to first answered request of a warm-started tier started for
   that alone: the balancer, then both shards' warm replay. *)
let cold_start ctx ~warm inputs golden =
  let count = ref 0 in
  fun () ->
    incr count;
    let t0 = Host.now_ns () in
    let tier = start ctx ~warm (Printf.sprintf "cold%d" !count) in
    Tier.await_ready tier;
    let conn = Load.Conn.connect tier.Tier.socket in
    let answer = Load.Conn.rpc conn inputs.pool.(0) in
    let setup = Host.seconds_since t0 in
    if answer <> golden.(0) then Host.fail "first answer differs from golden: %s" answer;
    Load.Conn.close conn;
    Tier.kill tier;
    setup

let run ctx =
  let inputs = inputs ctx in
  let golden = goldens inputs.pool in
  let warm = Filename.concat ctx.Ctx.dir "warm" in
  prime ctx ~warm inputs;
  let tier = start ctx ~warm "timed" in
  Tier.await_ready tier;
  let conns = Array.init 2 (fun _ -> Load.Conn.connect tier.Tier.socket) in
  let before = Tier.stats conns.(0) in
  let wrong = warm_check before in
  let pids = Tier.pid tier :: Tier.shard_pids before in
  let used = ref 0 in
  let window =
    Window.run ~seconds:ctx.Ctx.seconds ~segment_s:1.0 ~pids
      ~cold_start:(cold_start ctx ~warm inputs golden) ~starts:2
      ~segment:(fun seg_s ->
        let order = inputs.order in
        let seg =
          Load.closed_loop conns ~seconds:seg_s
            ~next:
              (Load.cursor ~from:!used (fun k ->
                   Some inputs.pool.(order.(k mod Array.length order))))
        in
        used := !used + Array.length seg.Load.samples;
        seg)
  in
  let rss_kb = List.fold_left (fun acc pid -> acc + Host.vm_hwm_kb pid) 0 pids in
  let after = Tier.stats conns.(1) in
  Load.Conn.close conns.(1);
  Tier.shutdown tier conns.(0);
  let samples = Load.all_samples window.Window.segments in
  let verdicts =
    Array.to_list
      (Array.map
         (fun s ->
           let expected = golden.(inputs.order.(s.Load.index mod Array.length inputs.order)) in
           let expected =
             if ctx.Ctx.corrupt_golden && s.Load.index = 0 then expected ^ " " else expected
           in
           match s.Load.response with
           | None -> Outcome.Not_ok "lost: connection closed"
           | Some r when r = expected -> Outcome.Pass
           | Some r when not (Exact_cold.ok_status r) -> Outcome.Not_ok r
           | Some r -> Outcome.Wrong (Printf.sprintf "response differs from golden: %s" r))
         samples)
  in
  let failed, wrong' = Outcome.tally verdicts in
  let delta keys = Tier.int_at after keys - Tier.int_at before keys in
  let wrong =
    wrong @ wrong'
    @
    if delta [ "cache"; "misses" ] <> 0 then
      [
        Printf.sprintf "%d cache misses on a key set that fits the caches"
          (delta [ "cache"; "misses" ]);
      ]
    else []
  in
  let timing, samples_note = Measure.serve_e2e window in
  {
    Outcome.attempted = Array.length samples;
    failed;
    wrong;
    e2e = (Measure.setup_e2e window :: timing) @ [ Measure.rss_e2e rss_kb ];
    probe_ms = Window.probe_ms window;
    notes =
      [
        Window.steal_note window;
        Printf.sprintf "%s; %d cache hits" samples_note (delta [ "cache"; "hits" ]);
      ];
  }
