(* The flat-state DP kernels (Opt_two, Opt_config) pinned to data.

   Digests hold each kernel's answers per instance: makespan, work
   counters and witness schedule. Their inputs span serving sizes, the
   persisted corpus, a fresh seeded population and hand-built instances
   near Rational's small/bigint boundary, whose lcm L of denominators
   is past 2^31 yet within max_int / m, so they run the
   common-denominator tier. The first two were derived
   while the frozen pre-rewrite boxed kernels still ran beside the flat
   ones: on every corpus, fresh and tier-boundary instance, Opt_two's
   lines were the boxed kernel's byte for byte (makespan, cells,
   relaxations, schedule rows), and Opt_config's makespan, generated
   count and layer sizes were the boxed kernel's. Opt_config's witness
   is its own (it orders survivors canonically where the boxed kernel
   inherited hash-bucket order, so a replay may pick a different
   equally-good parent); every one must certify. A third pins
   Opt_config on the shapes its first digest leaves out: two and five
   processors, and bigint-tier remainders. A fourth pins both kernels
   on the boxed tier (L above max_int / m).

   Beside the digests sit the kernels' work budgets: fuel per reached
   cell, words per job, and words and filter comparisons per generated
   successor. *)

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
   Mixed granularities (2 to 12) vary L; every draw runs the
   common-denominator tier. Returns the 140 for Opt_two, and for Opt_config
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

(* Hand-built instances at Rational's small/bigint seam. [Q.small_bound]
   is the largest canonical small-tier part; requirements near it make
   remainders and their sums leave Rational's small tier. Each has
   L <= max_int / m, so the kernels run the common-denominator tier on
   them; the boxed tier has its own inputs below. *)
let frac p q = Printf.sprintf "%d/%d" p q

let tier_boundary_m2 () =
  let b = Q.small_bound in
  let i rows = Helpers.instance_of_strings rows in
  [
    (* Sums of near-bound remainders leave Rational's small tier: the
       start cell's remainder is already past small_bound. *)
    ( "spill-over-bound",
      i
        [
          [ frac (b - 2) b; "1/3"; frac (b - 1) b ];
          [ frac (b - 3) b; "2/3"; "1/2" ];
        ] );
    (* Coprime ~2^16 denominators: each requirement is comfortably
       small-tier but their lcm (~2^32) exceeds small_bound. *)
    ( "lcm-overflow",
      i
        [
          [ frac 1 65521; frac 2 65521; frac 65520 65521 ];
          [ frac 1 65519; frac 3 65519 ];
        ] );
    (* A genuinely bigint-tier requirement: numerator and denominator
       above small_bound, both within an int. *)
    ( "bigint-requirement",
      i [ [ frac (b + 1) (b + 2); "1/2" ]; [ "1/2"; frac (b + 1) (b + 2) ] ] );
    (* lcm exactly at small_bound (a prime): the largest lcm the
       common-denominator tier once took before the bound became
       max_int / m. *)
    ("lcm-at-bound", i [ [ frac 1 b; frac 2 b ]; [ frac 3 b; frac 1 b ] ]);
  ]

(* Three near-bound first jobs: remainders leave Rational's small tier
   once a step splits a leftover, and a processor that a step leaves
   untouched must carry its remainder into the successor's key. *)
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

(* Seeded instances whose remainders leave Rational's small tier:
   near-bound requirements (b - r)/b beside small-denominator ones, so
   a leftover split across a near-bound job and a thirds or sevenths
   job is bigint-tier as a Rational, while L (at most 210 b) stays
   within max_int / m and the common-denominator tier holds it. *)
let near_bound_general () =
  let b = Q.small_bound in
  let st = Random.State.make [| 0xB16; 5 |] in
  let req () =
    if Random.State.bool st then frac (b - 1 - Random.State.int st 20) b
    else
      let q = [| 2; 3; 5; 7 |].(Random.State.int st 4) in
      frac (1 + Random.State.int st q) q
  in
  List.concat_map
    (fun (m, jobs, count) ->
      List.init count (fun k ->
          ( Printf.sprintf "near-bound m=%d #%d" m (k + 1),
            Helpers.instance_of_strings
              (List.init m (fun _ -> List.init (1 + Random.State.int st jobs) (fun _ -> req ()))) )))
    [ (2, 4, 10); (3, 3, 12); (4, 2, 8) ]

(* The second pin's inputs: the shapes the first leaves out. Two
   processors through Opt_config itself (campaign families and
   exact-cold's m = 2 family), five processors (campaign families at
   two and three jobs each), and instances whose witnesses carry
   bigint-tier shares. *)
let opt_config_wide_inputs () =
  let campaign shapes =
    List.concat_map
      (fun (family, m, n, seeds) ->
        List.init seeds (fun k ->
            let seed = k + 1 in
            ( Printf.sprintf "%s m=%d n=%d seed=%d"
                (Crs_campaign.Spec.family_to_string family)
                m n seed,
              campaign_instance family ~m ~n ~seed )))
      shapes
  in
  let exact_cold_m2 =
    let spec =
      {
        Crs_generators.Random_gen.m = 2;
        jobs_min = 60;
        jobs_max = 120;
        granularity = 20;
        allow_zero = false;
      }
    in
    List.init 5 (fun k ->
        ( Printf.sprintf "exact-cold m=2 seed=%d" (k + 1),
          Crs_generators.Random_gen.instance ~spec (Random.State.make [| k + 1 |]) ))
  in
  Crs_campaign.Spec.(
    campaign
      [
        (Uniform, 2, 8, 10); (Heavy_tailed, 2, 8, 10); (Balanced, 2, 8, 10);
        (Uniform, 2, 40, 3); (Heavy_tailed, 2, 40, 3);
        (Uniform, 5, 2, 10); (Heavy_tailed, 5, 2, 10); (Balanced, 5, 3, 5);
        (Uniform, 5, 3, 2); (Heavy_tailed, 5, 3, 4);
      ])
  @ exact_cold_m2 @ near_bound_general ()

(* Pinned like [witness_digest], with each solve's fuel ticks as well.
   It was derived while the domination filter still scanned every
   survivor per candidate, before the staircase and the job-count
   groups replaced that scan; those must keep the survivors, their
   order, the generated count and the fuel price. *)
let witness_digest_wide = "88625194439f7d33395b90917f99edba"

let test_witness_digest_wide () =
  let inputs = opt_config_wide_inputs () in
  let general = ref 0 in
  let buf = Buffer.create (1 lsl 16) in
  List.iter
    (fun (name, i) ->
      let before = Crs_util.Fuel.ticks () in
      let s = OC.solve i in
      let ticks = Crs_util.Fuel.ticks () - before in
      (match Crs_fuzz.Certify.check i s.OC.schedule ~claimed:s.OC.makespan with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "%s: witness rejected: %s" name msg);
      if
        List.exists
          (fun r -> not (Q.is_small r))
          (List.concat_map Array.to_list
             (Array.to_list (Schedule.rows s.OC.schedule)))
      then incr general;
      Printf.bprintf buf "%s: %d [%s] %d %d\n%s\n" name s.OC.makespan
        (String.concat ";" (List.map string_of_int s.OC.stats.OC.layers))
        s.OC.stats.OC.generated ticks
        (Schedule.to_string s.OC.schedule))
    inputs;
  Alcotest.(check bool) "some witness carries a bigint-tier share" true (!general > 0);
  Alcotest.(check string)
    (Printf.sprintf "%d solves: makespan, layers, generated, ticks, witness"
       (List.length inputs))
    witness_digest_wide
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

(* Work budget of the domination filter: its survivor-versus-candidate
   comparisons per generated successor, on uniform campaign families
   at m = 3, 4 and 5 (seeds 1-10). The count repeats exactly. The
   pairwise scan it replaced spent 15.33, 115.36 and 66.13 here; the
   staircase (m = 3) spends 2.16, the job-count groups 13.59 and 8.80.
   Fuel is still one tick per generated successor: the filter charges
   nothing. *)
let test_comparison_budget () =
  List.iter
    (fun (m, n, budget) ->
      let comparisons = ref 0 and generated = ref 0 in
      for seed = 1 to 10 do
        let i = campaign_instance Crs_campaign.Spec.Uniform ~m ~n ~seed in
        let before = Crs_util.Fuel.ticks () in
        let s = OC.solve i in
        Alcotest.(check int)
          (Printf.sprintf "m=%d n=%d seed=%d: fuel ticks = generated" m n seed)
          s.OC.stats.OC.generated
          (Crs_util.Fuel.ticks () - before);
        comparisons := !comparisons + s.OC.stats.OC.comparisons;
        generated := !generated + s.OC.stats.OC.generated
      done;
      let per = float_of_int !comparisons /. float_of_int !generated in
      Alcotest.(check bool)
        (Printf.sprintf "m=%d n=%d: %.2f comparisons per generated successor <= %.0f"
           m n per budget)
        true (per <= budget))
    [ (3, 6, 3.0); (4, 4, 20.0); (5, 2, 15.0) ]

(* Opt_two's inputs: perfbench exact-cold's m = 2 family (60-120 jobs
   per processor, granularity 20) and its heavy-tailed variant, Figure
   3 at n = 40 and 400, the hand-built small/bigint seam instances,
   every unit-size two-processor corpus entry and the 140
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

(* The boxed tier's inputs: instances whose lcm L of requirement
   denominators is above max_int / m, so neither kernel can hold their
   remainders as int numerators over L. Two processors with every prime
   up to 61 among the denominators (their product is about 1.2e23); two
   and three processors with the coprime denominators 2147483629 and
   2147483587, just below 2^31 (their product is about 4.6e18); and one
   instance with requirements whose denominator does not fit an int. *)
let primes_to_61 = [| 2; 3; 5; 7; 11; 13; 17; 19; 23; 29; 31; 37; 41; 43; 47; 53; 59; 61 |]

let boxed_tier_inputs () =
  let st = Random.State.make [| 0xB0C5; 29 |] in
  (* [over q] is in (0, 1]; [proper q] is below 1, so its reduced
     denominator is q for a prime q. *)
  let over q = frac (1 + Random.State.full_int st q) q in
  let proper q = frac (1 + Random.State.full_int st (q - 1)) q in
  let near_2_31 m count ~jobs =
    let big = [| 2147483629; 2147483587 |] in
    let req () =
      if Random.State.bool st then
        let q = big.(Random.State.int st 2) in
        if Random.State.bool st then frac (q - Random.State.int st 1000) q else over q
      else over [| 2; 3; 5; 7 |].(Random.State.int st 4)
    in
    List.init count (fun k ->
        ( Printf.sprintf "near-2^31 m=%d #%d" m (k + 1),
          Helpers.instance_of_strings
            (List.init m (fun i ->
                 let first = if i < 2 then proper big.(i) else req () in
                 first :: List.init (Random.State.int st jobs) (fun _ -> req ()))) ))
  in
  let small_primes count =
    List.init count (fun k ->
        let n1 = 9 + Random.State.int st 12 and n2 = 9 + Random.State.int st 12 in
        let n = n1 + n2 in
        let dens =
          Array.init n (fun _ -> primes_to_61.(Random.State.int st (Array.length primes_to_61)))
        in
        (* Every prime once, at distinct random jobs. *)
        let slots = Array.init n Fun.id in
        for j = n - 1 downto 1 do
          let r = Random.State.int st (j + 1) in
          let t = slots.(j) in
          slots.(j) <- slots.(r);
          slots.(r) <- t
        done;
        Array.iteri (fun j p -> dens.(slots.(j)) <- p) primes_to_61;
        let row lo len = List.init len (fun j -> proper dens.(lo + j)) in
        ( Printf.sprintf "primes<=61 m=2 #%d" (k + 1),
          Helpers.instance_of_strings [ row 0 n1; row n1 n2 ] ))
  in
  let huge = "100000000000000000039" in
  near_2_31 2 12 ~jobs:6 @ near_2_31 3 8 ~jobs:3 @ small_primes 30
  @ [
      ( "denominator-past-int",
        Helpers.instance_of_strings
          [
            [ "1/2"; "70000000000000000000/" ^ huge; "2/3" ];
            [ "99999999999999999999/" ^ huge; "3/5"; "1/" ^ huge; "1/4" ];
          ] );
    ]

(* Both kernels on the boxed tier, pinned per instance: Opt_two (at
   m = 2) by makespan, fuel ticks, cells, relaxations and witness,
   Opt_config by makespan, layer sizes, generated count, fuel ticks and
   witness. Every witness must certify, and the tier decision must
   refuse every instance. The digest was derived while the kernels
   still held these remainders as canonical int pairs with a bigint
   side store. *)
let boxed_tier_digest = "2f482640974072d5fc50e88aa480db5b"

let test_boxed_tier_digest () =
  let inputs = boxed_tier_inputs () in
  let buf = Buffer.create (1 lsl 16) in
  let certify name i schedule makespan =
    match Crs_fuzz.Certify.check i schedule ~claimed:makespan with
    | Ok _ -> ()
    | Error msg -> Alcotest.failf "%s: witness rejected: %s" name msg
  in
  let ticked f =
    let before = Crs_util.Fuel.ticks () in
    let r = f () in
    (r, Crs_util.Fuel.ticks () - before)
  in
  List.iter
    (fun (name, i) ->
      let rows = Array.init (Instance.m i) (fun p -> Array.map Job.requirement (Instance.jobs_on i p)) in
      if Q.common_denominator ~bound:(max_int / Instance.m i) rows <> None then
        Alcotest.failf "%s: the common-denominator tier accepts it" name;
      if Instance.m i = 2 then begin
        let s, ticks = ticked (fun () -> O2.solve i) in
        certify name i s.O2.schedule s.O2.makespan;
        Printf.bprintf buf "%s opt_two: %d %d %d %d\n%s\n" name s.O2.makespan ticks
          s.O2.counters.O2.cells_expanded s.O2.counters.O2.relaxations
          (Schedule.to_string s.O2.schedule)
      end;
      let s, ticks = ticked (fun () -> OC.solve i) in
      certify name i s.OC.schedule s.OC.makespan;
      Printf.bprintf buf "%s opt_config: %d [%s] %d %d\n%s\n" name s.OC.makespan
        (String.concat ";" (List.map string_of_int s.OC.stats.OC.layers))
        s.OC.stats.OC.generated ticks
        (Schedule.to_string s.OC.schedule))
    inputs;
  Alcotest.(check string)
    (Printf.sprintf "%d instances: both kernels' answers, work and witnesses"
       (List.length inputs))
    boxed_tier_digest
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

(* Every benchmark solve runs the common-denominator tier: the tier
   decision accepts seeds 1-100 of exact-cold's two families
   (granularity 20), hot-tier's two key shapes and campaign-sweep's
   uniform m = 3, n = 6 (granularity 10). *)
let test_benchmark_traffic_common_denominator () =
  let module Gen = Crs_generators.Random_gen in
  let accepts name i =
    let rows = Array.init (Instance.m i) (fun p -> Array.map Job.requirement (Instance.jobs_on i p)) in
    if Q.common_denominator ~bound:(max_int / Instance.m i) rows = None then
      Alcotest.failf "%s: sent to the boxed tier" name
  in
  let spec m lo hi g = { Gen.m; jobs_min = lo; jobs_max = hi; granularity = g; allow_zero = false } in
  for seed = 1 to 100 do
    List.iter
      (fun (name, sp) ->
        accepts (Printf.sprintf "%s seed=%d" name seed)
          (Gen.instance ~spec:sp (Random.State.make [| seed |])))
      [
        ("exact-cold m=2", spec 2 60 120 20); ("exact-cold m=3", spec 3 4 6 20);
        ("hot-tier m=2", spec 2 3 8 10); ("hot-tier m=3", spec 3 3 5 10);
      ];
    accepts (Printf.sprintf "campaign-sweep seed=%d" seed)
      (campaign_instance Crs_campaign.Spec.Uniform ~m:3 ~n:6 ~seed)
  done

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
    Alcotest.test_case "opt_config wide shapes pinned to a digest" `Quick
      test_witness_digest_wide;
    Alcotest.test_case "opt_config allocation budget per successor" `Quick
      test_alloc_budget;
    Alcotest.test_case "opt_config filter comparisons per successor" `Quick
      test_comparison_budget;
    Alcotest.test_case "boxed tier pinned to a digest" `Quick test_boxed_tier_digest;
    Alcotest.test_case "benchmark traffic takes the common-denominator tier" `Quick
      test_benchmark_traffic_common_denominator;
  ]
