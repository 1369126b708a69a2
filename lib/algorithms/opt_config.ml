(* OptResAssignment2 (paper, Section 7) on a flat state encoding.

   A configuration is encoded as one key: the jobs completed per
   processor, then each active job's remaining requirement in one of two
   tiers, chosen once per solve by [Rational.common_denominator]:

   - Common-denominator tier, when the lcm L of the requirements'
     denominators is at most max_int / m. Every remainder the search
     can form is a multiple of 1/L in [0, 1], so a key is 2m ints,

       ints = [| j_0 .. j_{m-1};  p_0 .. p_{m-1} |]

     with remainder i = p_i / L. A finish set's cost sums at most m
     numerators, at most m L, so the hot loop is int arithmetic: no
     gcds, no allocation, no overflow. Equal values have equal
     numerators, so int equality on keys is value equality.

   - Boxed tier, when L is larger: [ints] holds the m job counts and
     [rems] the m remainders as canonical [Rational.t] values, compared
     with [Rational.equal] and [Rational.compare].

   Both tiers decide on the same exact values, so the survivors, their
   order, the generated count, the fuel ticks and the witness do not
   depend on the tier.

   Nodes carry only their key and parent: boxed remainders and the
   per-step share vectors are reconstructed from the keys when the
   single optimal path is replayed, so inserting a successor allocates
   one small key copy and a two-field node, nothing more. Successor
   enumeration probes the dedup tables with a reusable scratch key and
   materializes only on a miss, so duplicate-heavy layers allocate
   almost nothing.

   The Lemma-4 domination filter sorts each layer's candidates
   lexicographically by per-processor desirability (more jobs done
   first, then smaller remainder). Domination implies sorting first,
   and the sort settles processor 0, so a forward pass keeps a
   candidate exactly when no earlier survivor is at least as
   desirable on each of processors 1..m-1: a dominance query over
   k = m - 1 coordinates instead of a scan of every survivor kept so
   far. At k = 1 it is a running best; at k = 2 (m = 3) a staircase
   of survivors searched by bisection; at k >= 3 the survivors are
   grouped by their job counts on processors 1..m-1, and remainders
   are compared only inside groups whose counts tie the candidate's.
   On uniform campaign families (seeds 1-10) that is 2.16
   comparisons per generated successor at m = 3, 13.59 at m = 4 and
   8.80 at m = 5 (tier-1 budgets them). The survivors are exactly the
   maximal candidates, in sorted order, so which of several equally
   good parents a duplicate keeps does not depend on hashtable bucket
   order. *)

module Q = Crs_num.Rational
open Crs_core

type stats = { layers : int list; generated : int; comparisons : int }
type solution = { makespan : int; schedule : Schedule.t; stats : stats }

module Key = struct
  type t = { ints : int array; rems : Q.t array }

  (* Keys within one solve always have equal lengths; compare contents
     directly, ints first (they discriminate almost always). Both run
     on every table probe, so they loop over local counters (see the
     hot-path rule in [solve]). *)
  let equal a b =
    let ai = a.ints and bi = b.ints in
    let n = Array.length ai in
    n = Array.length bi
    && (let i = ref 0 in
        while !i < n && ai.(!i) = bi.(!i) do incr i done;
        !i >= n)
    && (let ar = a.rems and br = b.rems in
        let nr = Array.length ar in
        nr = Array.length br
        &&
        let i = ref 0 in
        while !i < nr && Q.equal ar.(!i) br.(!i) do incr i done;
        !i >= nr)

  let hash { ints; rems } =
    let h = ref 0x811c9dc5 in
    for i = 0 to Array.length ints - 1 do
      h := (!h lxor ints.(i)) * 0x01000193 land max_int
    done;
    for i = 0 to Array.length rems - 1 do
      h := (!h lxor Q.hash rems.(i)) * 0x01000193 land max_int
    done;
    !h
end

module H = Hashtbl.Make (Key)

type node = { key : Key.t; parent : node option }

let solve ?(prune = true) instance =
  if not (Instance.is_unit_size instance) then
    invalid_arg "Opt_config: unit-size jobs only";
  let m = Instance.m instance in
  let n_i = Array.init m (Instance.n_i instance) in
  (* Requirement rows; index n_i(i) holds the zero of the dummy job. *)
  let reqb =
    Array.init m (fun i ->
        Array.init
          (n_i.(i) + 1)
          (fun k ->
            if k < n_i.(i) then Job.requirement (Instance.job instance i k)
            else Q.zero))
  in
  (* The remainder tier (see the header): lden = 0 selects the boxed
     tier; otherwise reqn holds the requirements' numerators over lden. *)
  let lden, reqn =
    match Q.common_denominator ~bound:(max_int / m) reqb with
    | Some (l, rn) -> (l, rn)
    | None -> (0, [||])
  in
  let boxed = lden = 0 in
  (* Processor [i]'s remainder in [key], boxed: the replay pays this. *)
  let rem (key : Key.t) i =
    if boxed then key.Key.rems.(i) else Q.of_ints key.Key.ints.(m + i) lden
  in
  let start =
    {
      key =
        {
          Key.ints =
            Array.init (if boxed then m else 2 * m) (fun x ->
                if x < m then 0 else reqn.(x - m).(0));
          rems = (if boxed then Array.init m (fun i -> reqb.(i).(0)) else [||]);
        };
      parent = None;
    }
  in
  let is_final node =
    let ints = node.key.Key.ints in
    let i = ref 0 in
    while !i < m && ints.(!i) >= n_i.(!i) do incr i done;
    !i >= m
  in
  if is_final start then
    { makespan = 0; schedule = Schedule.empty ~m;
      stats = { layers = []; generated = 0; comparisons = 0 } }
  else begin
    let seen : unit H.t = H.create 1024 in
    H.replace seen start.key ();
    let generated = ref 0 in
    let fuel = Crs_util.Fuel.meter () in
    let layer_sizes = ref [] in
    let max_layers = Instance.total_jobs instance + 1 in
    let layer_hist =
      if Crs_obs.Metrics.enabled () then
        Some (Crs_obs.Metrics.histogram "opt_config.layer_size")
      else None
    in
    (* Hot-path rule: the helpers below are defined once per solve and
       take what varies (node, processor) as arguments, and comparisons
       loop over local counters. Without flambda a local closure is an
       allocation per call, and comparisons, probes and finish-set masks
       far outnumber the successors a solve keeps; so the search
       allocates only what it keeps, a key copy and a node per new
       successor. *)
    (* Remainder order for processor [i]: one int compare in the
       common-denominator tier. *)
    let rem_cmp a b i =
      if boxed then Q.compare a.key.Key.rems.(i) b.key.Key.rems.(i)
      else Stdlib.compare (a.key.Key.ints.(m + i) : int) b.key.Key.ints.(m + i)
    in
    (* Processor [i]'s desirability order: more jobs done, then smaller
       remainder; negative when [a] is the more desirable. A total
       order per processor: equal means same job and same remainder. *)
    let proc_cmp a b i =
      let ja = a.key.Key.ints.(i) and jb = b.key.Key.ints.(i) in
      if ja <> jb then Stdlib.compare (jb : int) ja else rem_cmp a b i
    in
    (* Lexicographic over processors 0..m-1. Domination (Lemma 4: at
       least as desirable on every processor) implies sorting first. *)
    let node_cmp a b =
      let c = ref 0 and i = ref 0 in
      while !c = 0 && !i < m do
        c := proc_cmp a b !i;
        incr i
      done;
      !c
    in
    (* The domination filter (see the header): over a layer sorted by
       [node_cmp] (candidates are deduped, so none compare equal), keep
       each candidate that no earlier survivor matches or beats on
       every one of processors 1..m-1. [k_le_1], [staircase] and
       [groups] answer that query for k = m - 1 coordinates; the
       general problem is the maxima of a vector set (Kung, Luccio and
       Preparata, JACM 1975). Each moves the survivors, in order, to
       the front of the layer, returns their count and counts its
       survivor-versus-candidate comparisons in [comparisons]. Their
       scratch is int arrays (survivor positions, group job counts),
       grown as needed and kept for the solve. *)
    let k = m - 1 in
    let comparisons = ref 0 in
    let stair = ref [||] and gnext = ref [||] and ghead = ref [||] in
    let gcnt = ref [||] in
    let grow r n =
      if Array.length !r < n then
        r := Array.make (max n (2 * Array.length !r)) 0
    in
    (* k <= 1: the running best on processor 1 (at m = 1, the first
       candidate dominates the rest). *)
    let k_le_1 arr =
      let ns = ref 0 in
      for c = 0 to Array.length arr - 1 do
        let cand = arr.(c) in
        let dominated =
          !ns > 0
          && (m = 1 || (incr comparisons; proc_cmp arr.(!ns - 1) cand 1 <= 0))
        in
        if not dominated then begin
          arr.(!ns) <- cand;
          incr ns
        end
      done;
      !ns
    in
    (* k = 2: the survivors not dominated on processors 1 and 2 by
       another, kept with processor 1 strictly falling and processor 2
       strictly rising in desirability. The candidate's dominator, if
       any, is the last entry at least as desirable on processor 1. A
       survivor replaces the entries it dominates there: at most one
       equal on processor 1, then a run worse on both. *)
    let staircase arr =
      let len = ref 0 and ns = ref 0 in
      for c = 0 to Array.length arr - 1 do
        let cand = arr.(c) and st = !stair in
        let lo = ref 0 and hi = ref !len and last = ref 0 in
        while !lo < !hi do
          let mid = (!lo + !hi) lsr 1 in
          incr comparisons;
          let r = proc_cmp arr.(st.(mid)) cand 1 in
          if r <= 0 then begin
            lo := mid + 1;
            last := r
          end
          else hi := mid
        done;
        let lo = !lo in
        let dominated =
          lo > 0 && (incr comparisons; proc_cmp arr.(st.(lo - 1)) cand 2 <= 0)
        in
        if not dominated then begin
          (* [last] is entry lo-1's probe: the last probe that moved lo. *)
          let p0 = if lo > 0 && !last = 0 then lo - 1 else lo in
          let p1 = ref lo in
          while
            !p1 < !len
            && (incr comparisons;
                proc_cmp arr.(st.(!p1)) cand 2 >= 0)
          do
            incr p1
          done;
          let p1 = !p1 in
          (* A staircase is far shorter than its layer (at most 55
             entries over 400 solves of exact-cold's m = 3 family,
             whose layers reach 459 candidates), so it grows with
             itself and stays small enough for the minor heap. *)
          let st =
            if p1 = p0 && !len = Array.length st then begin
              let wider = Array.make (max 16 (2 * !len)) 0 in
              Array.blit st 0 wider 0 !len;
              stair := wider;
              wider
            end
            else st
          in
          if p1 - p0 <> 1 then Array.blit st p1 st (p0 + 1) (!len - p1);
          st.(p0) <- !ns;
          len := !len - (p1 - p0) + 1;
          arr.(!ns) <- cand;
          incr ns
        end
      done;
      !ns
    in
    (* k >= 3: the survivors in groups of equal job counts on processors
       1..m-1 (group g's count for processor i at gcnt.(g * m + i)),
       each a list threaded through [gnext], newest first. A group
       strictly ahead on every count dominates outright, one behind on
       any count cannot; otherwise only its members' remainders on the
       tied processors are compared. *)
    let groups arr =
      let n = Array.length arr in
      grow gnext n;
      grow ghead n;
      grow gcnt (n * m);
      let gnext = !gnext and ghead = !ghead and gcnt = !gcnt in
      let ng = ref 0 and ns = ref 0 in
      for c = 0 to n - 1 do
        let cand = arr.(c) in
        let ci = cand.key.Key.ints in
        let dominated = ref false and own = ref (-1) and g = ref 0 in
        while (not !dominated) && !g < !ng do
          incr comparisons;
          let base = !g * m in
          let behind = ref false and ahead = ref true and tied = ref true in
          let i = ref 1 in
          while (not !behind) && !i < m do
            let d = gcnt.(base + !i) - ci.(!i) in
            if d < 0 then behind := true
            else if d = 0 then ahead := false
            else tied := false;
            incr i
          done;
          if not !behind then begin
            if !ahead then dominated := true
            else begin
              if !tied then own := !g;
              let s = ref ghead.(!g) in
              while (not !dominated) && !s >= 0 do
                incr comparisons;
                let mem = arr.(!s) in
                let ok = ref true and i = ref 1 in
                while !ok && !i < m do
                  if gcnt.(base + !i) = ci.(!i) then
                    ok := rem_cmp mem cand !i <= 0;
                  incr i
                done;
                dominated := !ok;
                s := gnext.(!s)
              done
            end
          end;
          incr g
        done;
        if not !dominated then begin
          let s = !ns in
          arr.(s) <- cand;
          incr ns;
          if !own >= 0 then begin
            gnext.(s) <- ghead.(!own);
            ghead.(!own) <- s
          end
          else begin
            let g = !ng in
            incr ng;
            for i = 1 to k do
              gcnt.((g * m) + i) <- ci.(i)
            done;
            gnext.(s) <- -1;
            ghead.(g) <- s
          end
        end
      done;
      !ns
    in
    let filter =
      if k <= 1 then k_le_1 else if k = 2 then staircase else groups
    in
    let pareto_sweep candidates =
      let arr = Array.of_list candidates in
      Array.stable_sort node_cmp arr;
      let acc = ref [] in
      for j = filter arr - 1 downto 0 do
        acc := arr.(j) :: !acc
      done;
      !acc
    in
    (* Scratch state for streaming successor enumeration: keys are
       assembled in place and only copied when a probe misses. *)
    let sk_ints = Array.make (Array.length start.key.Key.ints) 0 in
    let sk_rems = Array.make (Array.length start.key.Key.rems) Q.zero in
    let sk = { Key.ints = sk_ints; rems = sk_rems } in
    let actives = Array.make m 0 in
    let in_finished = Array.make m false in
    (* The current finish set's leftover 1 - cost: [lo_n] over lden, or
       [lo_q] in the boxed tier. *)
    let lo_n = ref 0 and lo_q = ref Q.zero in
    (* One dedup table for the whole solve, cleared (capacity kept)
       between layers: fig3-like instances have hundreds of tiny
       layers, where a fresh bucket array per layer dominates. *)
    let next : node H.t = H.create 64 in
    let rev_order = ref [] in
    (* Emit one successor of [nd] for the finish set marked in
       [in_finished]: [partial] < 0 finishes the set and wastes any
       leftover; otherwise processor [partial] invests the leftover.
       Numerators are stored raw over lden, never reduced, keeping the
       encoding uniform for dedup. Probe the scratch key; on a miss,
       materialize and queue the successor. *)
    let emit nd partial =
      Crs_util.Fuel.charge fuel;
      incr generated;
      let c = nd.key in
      for i = 0 to m - 1 do
        let fin = in_finished.(i) in
        let j' = if fin then c.Key.ints.(i) + 1 else c.Key.ints.(i) in
        sk_ints.(i) <- j';
        if boxed then
          sk_rems.(i) <-
            (if fin then reqb.(i).(j')
             else if i = partial then Q.sub c.Key.rems.(i) !lo_q
             else c.Key.rems.(i))
        else
          sk_ints.(m + i) <-
            (if fin then reqn.(i).(j')
             else if i = partial then c.Key.ints.(m + i) - !lo_n
             else c.Key.ints.(m + i))
      done;
      if not (H.mem seen sk) && not (H.mem next sk) then begin
        let key = { Key.ints = Array.copy sk_ints; rems = Array.copy sk_rems } in
        let node = { key; parent = Some nd } in
        H.add next key node;
        rev_order := node :: !rev_order
      end
    in
    let expand nd =
      let c = nd.key in
      let ints = c.Key.ints in
      let k = ref 0 in
      for i = 0 to m - 1 do
        if ints.(i) < n_i.(i) then begin
          actives.(!k) <- i;
          incr k
        end
      done;
      let k = !k in
      for mask = 1 to (1 lsl k) - 1 do
        (* Mark the finish set and sum its cost. *)
        let cost_n = ref 0 and cost_q = ref Q.zero in
        for b = 0 to k - 1 do
          if mask land (1 lsl b) <> 0 then begin
            let i = actives.(b) in
            in_finished.(i) <- true;
            if boxed then cost_q := Q.add !cost_q c.Key.rems.(i)
            else cost_n := !cost_n + ints.(m + i)
          end
        done;
        if if boxed then Q.(!cost_q <= one) else !cost_n <= lden then begin
          lo_n := lden - !cost_n;
          if boxed then lo_q := Q.sub Q.one !cost_q;
          let has_other = ref false in
          for b = 0 to k - 1 do
            if not in_finished.(actives.(b)) then has_other := true
          done;
          if (not !has_other) || if boxed then Q.is_zero !lo_q else !lo_n = 0 then
            emit nd (-1)
          else
            (* Non-wasting: the leftover must go to some still-active
               job it cannot finish; if it could finish one, the larger
               finish set covers that choice. *)
            for b = 0 to k - 1 do
              let p = actives.(b) in
              if
                (not in_finished.(p))
                && if boxed then Q.(c.Key.rems.(p) > !lo_q) else ints.(m + p) > !lo_n
              then emit nd p
            done
        end;
        for b = 0 to k - 1 do
          if mask land (1 lsl b) <> 0 then in_finished.(actives.(b)) <- false
        done
      done
    in
    let expand_layer layer =
      H.clear next;
      rev_order := [];
      let gen0 = !generated in
      List.iter expand layer;
      let candidates = List.rev !rev_order in
      (* Mutual domination forces equality, and equal configs were
         merged above, so discarding every dominated candidate never
         empties a non-empty layer (and a singleton layer is its own
         frontier). *)
      let survivors =
        match candidates with
        | [] | [ _ ] -> candidates
        | _ -> if prune then pareto_sweep candidates else candidates
      in
      (* Candidates were filtered against [seen], so survivors are new
         keys: plain add, no lookup-and-replace. *)
      List.iter (fun n -> H.add seen n.key ()) survivors;
      let width = List.length survivors in
      layer_sizes := width :: !layer_sizes;
      (match layer_hist with
      | Some h -> Crs_obs.Metrics.observe h width
      | None -> ());
      if Crs_obs.Trace.enabled () then
        Crs_obs.Trace.add_attrs
          [
            ("survivors", Crs_obs.Trace.Int width);
            ("generated", Crs_obs.Trace.Int (!generated - gen0));
          ];
      survivors
    in
    (* One span per time layer. The recursive call happens outside the
       span so layers appear as siblings under the solve root, not as an
       ever-deepening chain. *)
    let rec grow layer t =
      if t > max_layers then
        failwith "Opt_config.solve: exceeded layer budget (bug)"
      else begin
        let survivors =
          Crs_obs.Trace.with_span_l
            (fun () -> [ ("t", Crs_obs.Trace.Int t) ])
            "opt_config.layer"
            (fun () -> expand_layer layer)
        in
        match List.find_opt is_final survivors with
        | Some final -> (t, final)
        | None ->
          if survivors = [] then failwith "Opt_config.solve: dead end (bug)"
          else grow survivors (t + 1)
      end
    in
    let makespan, final = grow [ start ] 1 in
    (* Rebuild each step's share vector from the parent/child keys: a
       processor whose job count rose was finished (its share is the
       parent's whole remainder); every other one gets what its
       remainder shrank by (zero when it did not move). Shares come out
       canonical boxed either way, so schedule bytes don't depend on
       the tier. *)
    let shares_of parent child =
      Array.init m (fun i ->
          if child.key.Key.ints.(i) > parent.key.Key.ints.(i) then rem parent.key i
          else Q.sub (rem parent.key i) (rem child.key i))
    in
    let rec collect node acc =
      match node.parent with
      | None -> acc
      | Some p -> collect p (shares_of p node :: acc)
    in
    let rows = collect final [] in
    let schedule = Schedule.of_rows (Array.of_list rows) in
    {
      makespan;
      schedule;
      stats =
        {
          layers = List.rev !layer_sizes;
          generated = !generated;
          comparisons = !comparisons;
        };
    }
  end

let makespan ?prune instance = (solve ?prune instance).makespan
