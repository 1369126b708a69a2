(* The flat-state DP kernels (Opt_two, Opt_config) pinned to data.

   Two digests hold each kernel's answers per instance: makespan, work
   counters and witness schedule. Their inputs span serving sizes, the
   persisted corpus, a fresh seeded population and hand-built instances
   that straddle the small/bigint tier boundary — the layouts' hard
   cases (common-denominator mode refused, small-tier sums spilling to
   the side table, bigint-tier requirements). Both digests were derived
   while the frozen pre-rewrite boxed kernels still ran beside the flat
   ones: on every corpus, fresh and tier-boundary instance, Opt_two's
   lines were the boxed kernel's byte for byte (makespan, cells,
   relaxations, schedule rows), and Opt_config's makespan, generated
   count and layer sizes were the boxed kernel's. Opt_config's witness
   is its own (it orders survivors canonically where the boxed kernel
   inherited hash-bucket order, so a replay may pick a different
   equally-good parent); every one must certify.

   Beside the digests sit the kernels' work budgets: fuel per reached
   cell, words per job and words per generated successor. *)

module Q = Crs_num.Rational
open Crs_core
module O2 = Crs_algorithms.Opt_two
module OC = Crs_algorithms.Opt_config

(* The unit-size corpus entries, named by file. *)
let corpus () =
  let entries = Crs_fuzz.Corpus.load_dir "../data/corpus" in
  Alcotest.(check bool) "corpus present" true (entries <> []);
  List.filter_map
    (fun (file, entry) ->
      match entry with
      | Error msg -> Alcotest.failf "%s: unreadable corpus entry: %s" file msg
      | Ok e -> (
        match Instance.of_string e.Crs_fuzz.Corpus.instance_text with
        | Error msg -> Alcotest.failf "%s: unparseable instance: %s" file msg
        | Ok i ->
          if Instance.is_unit_size i then Some (Filename.basename file, i) else None))
    entries

(* Fresh seeded instances (not from the corpus), drawn from one stream:
   140 two-processor ones, then 45 three- and 15 four-processor ones.
   Mixed granularities keep both encodings in play: most draws stay in
   common-denominator mode, coprime-granularity pairs fall back to the
   canonical-pair path. Returns the 140 for Opt_two, and for Opt_config
   the first 40 of them followed by the 60 wider ones. *)
let fresh () =
  let st = Random.State.make [| 0xD9; 8 |] in
  let draw m ~jobs count =
    List.init count (fun k ->
        let rows =
          Array.init m (fun _ ->
              let g = 2 + Random.State.int st 11 in
              Array.init (1 + Random.State.int st jobs) (fun _ -> Helpers.rand_req st g))
        in
        (Printf.sprintf "fresh m=%d #%d" m (k + 1), Instance.of_requirements rows))
  in
  let two = draw 2 ~jobs:6 140 in
  let three = draw 3 ~jobs:3 45 in
  let four = draw 4 ~jobs:2 15 in
  (two, List.filteri (fun k _ -> k < 40) two @ three @ four)

(* Hand-built instances at the small/bigint seam. [Q.small_bound] is
   the largest canonical small-tier part; requirements with numerators
   near it force every escape hatch in turn. *)
let frac p q = Printf.sprintf "%d/%d" p q

let tier_boundary_m2 () =
  let b = Q.small_bound in
  let i rows = Helpers.instance_of_strings rows in
  [
    (* Sums of near-bound remainders overflow the small tier: the start
       cell's remainder already needs the bigint spill table, and the
       lcm of the denominators is far past small_bound, so
       common-denominator mode must refuse the instance. *)
    ( "spill-over-bound",
      i
        [
          [ frac (b - 2) b; "1/3"; frac (b - 1) b ];
          [ frac (b - 3) b; "2/3"; "1/2" ];
        ] );
    (* Coprime ~2^16 denominators: each requirement is comfortably
       small-tier but their lcm (~2^32) exceeds small_bound, so the
       kernels must run the canonical-pair path without ever spilling. *)
    ( "lcm-overflow",
      i
        [
          [ frac 1 65521; frac 2 65521; frac 65520 65521 ];
          [ frac 1 65519; frac 3 65519 ];
        ] );
    (* A genuinely bigint-tier requirement (numerator and denominator
       above small_bound): prefetch leaves reqq = 0 and every touch of
       this job must take the boxed route. *)
    ( "bigint-requirement",
      i [ [ frac (b + 1) (b + 2); "1/2" ]; [ "1/2"; frac (b + 1) (b + 2) ] ] );
    (* lcm exactly AT the bound (small_bound is prime, so a denominator
       of small_bound pins the lcm there): the largest denominator
       common-denominator mode may accept. *)
    ("lcm-at-bound", i [ [ frac 1 b; frac 2 b ]; [ frac 3 b; frac 1 b ] ]);
  ]

(* Three near-bound first jobs: remainders leave the small tier once a
   step splits a leftover, and a processor that a step leaves untouched
   must carry its big remainder into the successor's key. *)
let big_remainder_carried () =
  let b = Q.small_bound in
  ( "big-remainder-carried",
    Helpers.instance_of_strings
      [
        [ frac (b - 2) b; "1/3" ];
        [ frac (b - 3) b; "2/3" ];
        [ frac (b - 5) b; "1/7" ];
      ] )

(* The rewrite hoisted Opt_two's fuel tick past the reachability check:
   fuel is charged per REACHED cell, and the cells_expanded counter is
   now exactly the solve's fuel price. The instance keeps the start
   remainder <= 1, so the DP walks the diagonal and most grid cells
   stay unreachable — the pre-rewrite kernel ticked all of them. *)
let test_fuel_price_is_reachable_cells () =
  let i = Helpers.instance_of_strings [ [ "1/4"; "1/2" ]; [ "1/4"; "1/2" ] ] in
  let before = Crs_util.Fuel.ticks () in
  let sol = O2.solve i in
  let spent = Crs_util.Fuel.ticks () - before in
  Alcotest.(check int) "diagonal instance reaches 2 of 8 grid cells" 2
    sol.O2.counters.O2.cells_expanded;
  Alcotest.(check int) "fuel spent = cells expanded"
    sol.O2.counters.O2.cells_expanded spent;
  Alcotest.(check int) "budget = reachable count completes" 2
    (Crs_util.Fuel.with_fuel (Some 2) (fun () -> O2.makespan i));
  Alcotest.(check bool) "one tick fewer runs dry" true
    (match Crs_util.Fuel.with_fuel (Some 1) (fun () -> O2.makespan i) with
    | _ -> false
    | exception Crs_util.Fuel.Out_of_fuel -> true)

(* Campaign instances at granularity 10, the grid `crsched campaign`
   draws from by default. *)
let campaign_instance family ~m ~n ~seed =
  Crs_campaign.Spec.instance
    { Crs_campaign.Spec.default with family; m; n; granularity = 10 }
    ~seed

(* Opt_config's inputs: 360 campaign solves (three families, three
   shapes, 40 seeds), then every unit-size corpus entry with at most
   four processors and ten jobs (the kernel is exponential in width),
   the 100 fresh instances and the tier-boundary ones. *)
let opt_config_inputs () =
  let campaign =
    List.concat_map
      (fun family ->
        List.concat_map
          (fun (m, n) ->
            List.init 40 (fun k ->
                let seed = k + 1 in
                ( Printf.sprintf "%s m=%d n=%d seed=%d"
                    (Crs_campaign.Spec.family_to_string family)
                    m n seed,
                  campaign_instance family ~m ~n ~seed )))
          [ (3, 5); (3, 6); (4, 4) ])
      Crs_campaign.Spec.[ Uniform; Heavy_tailed; Balanced ]
  in
  let corpus =
    List.filter
      (fun (_, i) -> Instance.m i <= 4 && Instance.total_jobs i <= 10)
      (corpus ())
  in
  Alcotest.(check bool) "corpus feeds Opt_config" true (corpus <> []);
  campaign @ corpus @ snd (fresh ()) @ tier_boundary_m2 ()
  @ [ big_remainder_carried () ]

(* The witness a replay picks depends on the search order, the survivor
   order and the replay itself, so it is pinned here, per instance,
   beside makespan, layer sizes and the generated count. The digest
   changes only when one of those changes, and then it must be
   re-derived on purpose. *)
let witness_digest = "de8a67ddc01faedf44c1dd94597a909c"

let test_witness_digest () =
  let inputs = opt_config_inputs () in
  let buf = Buffer.create (1 lsl 16) in
  List.iter
    (fun (name, i) ->
      let s = OC.solve i in
      (match Crs_fuzz.Certify.check i s.OC.schedule ~claimed:s.OC.makespan with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "%s: witness rejected: %s" name msg);
      Printf.bprintf buf "%s: %d [%s] %d\n%s\n" name s.OC.makespan
        (String.concat ";" (List.map string_of_int s.OC.stats.OC.layers))
        s.OC.stats.OC.generated
        (Schedule.to_string s.OC.schedule))
    inputs;
  Alcotest.(check string)
    (Printf.sprintf "%d solves: makespan, layers, generated, witness"
       (List.length inputs))
    witness_digest
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

(* Allocation budget of the search loop: minor words spent inside the
   solves per generated successor, on seeds 1-50 of the campaign-sweep
   family (uniform, m = 3, n = 6). With tracing and metrics off the
   count repeats exactly. A closure or boxed value per comparison, probe
   or finish-set mask costs about 250 words per successor, and the
   frozen pre-rewrite kernel spent 363; the keys and nodes a solve
   keeps, with its per-layer lists, cost about 20. *)
let test_alloc_budget () =
  Crs_obs.Metrics.set_enabled false;
  Crs_obs.Trace.set_enabled false;
  let words = ref 0.0 and generated = ref 0 in
  for seed = 1 to 50 do
    let i = campaign_instance Crs_campaign.Spec.Uniform ~m:3 ~n:6 ~seed in
    let w0 = Gc.minor_words () in
    let s = OC.solve i in
    let spent = Gc.minor_words () -. w0 in
    words := !words +. spent;
    generated := !generated + s.OC.stats.OC.generated
  done;
  let per = !words /. float_of_int !generated in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f minor words per generated successor (%d generated) <= 40"
       per !generated)
    true (per <= 40.0)

(* Opt_two's inputs: perfbench exact-cold's m = 2 family (60-120 jobs
   per processor, granularity 20) and its heavy-tailed variant, Figure
   3 at n = 40 and 400, the tier-boundary instances that exercise the
   spill table, every unit-size two-processor corpus entry and the 140
   fresh two-processor instances. *)
let opt_two_inputs () =
  let spec =
    {
      Crs_generators.Random_gen.m = 2;
      jobs_min = 60;
      jobs_max = 120;
      granularity = 20;
      allow_zero = false;
    }
  in
  let seeded name gen count =
    List.init count (fun k ->
        let seed = k + 1 in
        (Printf.sprintf "%s seed=%d" name seed, gen (Random.State.make [| seed |])))
  in
  let corpus = List.filter (fun (_, i) -> Instance.m i = 2) (corpus ()) in
  Alcotest.(check bool) "corpus feeds Opt_two" true (corpus <> []);
  seeded "exact-cold" (Crs_generators.Random_gen.instance ~spec) 120
  @ seeded "heavy-tailed" (Crs_generators.Random_gen.heavy_tailed ~spec) 20
  @ List.map
      (fun n ->
        (Printf.sprintf "fig3 n=%d" n, Crs_generators.Adversarial.round_robin_family ~n))
      [ 40; 400 ]
  @ tier_boundary_m2 () @ corpus @ fst (fresh ())

(* Opt_two pinned per instance: makespan, fuel ticks, both work
   counters and the witness. Any change to the reachable set, the
   relaxation order, the fuel price or the replay moves it. *)
let opt_two_digest = "c78ac17e62da0c01993684ab74a25923"

let test_opt_two_digest () =
  let inputs = opt_two_inputs () in
  let buf = Buffer.create (1 lsl 20) in
  List.iter
    (fun (name, i) ->
      let before = Crs_util.Fuel.ticks () in
      let s = O2.solve i in
      let ticks = Crs_util.Fuel.ticks () - before in
      Printf.bprintf buf "%s: %d %d %d %d\n%s\n" name s.O2.makespan ticks
        s.O2.counters.O2.cells_expanded s.O2.counters.O2.relaxations
        (Schedule.to_string s.O2.schedule))
    inputs;
  Alcotest.(check string)
    (Printf.sprintf "%d solves: makespan, ticks, cells, relaxations, witness"
       (List.length inputs))
    opt_two_digest
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

(* Words [f] allocates: minor words plus the words allocated straight
   into the major heap (arrays past the minor heap's size limit), which
   [Gc.minor_words] never sees. *)
let words f =
  let direct () =
    let _, promoted, major = Gc.counters () in
    major -. promoted
  in
  let m0 = Gc.minor_words () and d0 = direct () in
  let r = f () in
  let spent = Gc.minor_words () -. m0 +. (direct () -. d0) in
  (r, spent)

(* Live state is O(n1 + n2) words: three diagonals of 3 words per i1,
   the prefetched requirement rows and, for [solve], one via array
   entry per level. A table over (n1 + 1)(n2 + 1) cells would cost
   n1 n2 words and more. *)
let words_per_job = 16.0

(* 6 000 jobs of 1/4 against 6 000 of 1/2: every step finishes both
   jobs, so the DP walks the diagonal and a budget of 100 runs dry at
   the 101st cell. The words spent must follow the input and the fuel,
   not the 36 M cells of the grid, for [Opt_two] and for the Pareto
   audit alike. *)
let test_memory_follows_fuel () =
  Crs_obs.Metrics.set_enabled false;
  Crs_obs.Trace.set_enabled false;
  let n = 6000 in
  let i =
    Instance.of_requirements [| Array.make n (Q.of_ints 1 4); Array.make n (Q.of_ints 1 2) |]
  in
  let module R = Crs_algorithms.Registry in
  List.iter
    (fun name ->
      let out, spent = words (fun () -> R.run ~fuel:100 (R.find_exn name) i) in
      (match out with
      | Error (R.Timeout ticks) ->
        Alcotest.(check int) (name ^ ": timeout reports budget + 1") 101 ticks
      | _ -> Alcotest.failf "%s: fuel 100 must time out" name);
      let budget = words_per_job *. float_of_int (2 * n) in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.0f words <= %.0f (n1 + n2 = %d)" name spent budget (2 * n))
        true (spent <= budget))
    [ R.Names.optimal; R.Names.opt_two_pareto ]

(* The same bound on full makespan solves of Figure 3, whose reachable
   cells grow as n^2 while the words must grow as n. The frozen
   pre-rewrite kernel, one boxed table entry per cell, spent 236 k,
   925 k and 3.67 M words here. *)
let test_makespan_words () =
  Crs_obs.Metrics.set_enabled false;
  Crs_obs.Trace.set_enabled false;
  List.iter
    (fun n ->
      let i = Crs_generators.Adversarial.round_robin_family ~n in
      let ms, spent = words (fun () -> O2.makespan i) in
      Alcotest.(check int) (Printf.sprintf "fig3 n=%d makespan" n) (n + 1) ms;
      let budget = words_per_job *. float_of_int (2 * n) in
      Alcotest.(check bool)
        (Printf.sprintf "fig3 n=%d: %.0f words <= %.0f" n spent budget)
        true (spent <= budget))
    [ 200; 400; 800 ]

let suite =
  [
    Alcotest.test_case "opt_two fuel price = reachable cells" `Quick
      test_fuel_price_is_reachable_cells;
    Alcotest.test_case "opt_two pinned to a digest" `Quick test_opt_two_digest;
    Alcotest.test_case "opt_two memory follows fuel" `Quick
      test_memory_follows_fuel;
    Alcotest.test_case "opt_two words per makespan are O(n)" `Quick
      test_makespan_words;
    Alcotest.test_case "opt_config witnesses pinned to a digest" `Quick
      test_witness_digest;
    Alcotest.test_case "opt_config allocation budget per successor" `Quick
      test_alloc_budget;
  ]
