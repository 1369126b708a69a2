(* OptResAssignment2 (paper, Section 7) on a flat state encoding.

   A configuration is encoded as one int-array key:

     ints = [| j_0 .. j_{m-1};  p_0; q_0;  ..  p_{m-1}; q_{m-1} |]

   jobs completed per processor followed by each active job's remaining
   requirement. The remainder encoding depends on the per-solve mode:

   - Common-denominator mode (the fast path, taken when every
     requirement is small-tier and the lcm L of their denominators is
     itself small): every remainder the search can form is an exact
     multiple of 1/L, so keys store plain numerators over q_i = L and
     the hot loop is pure int arithmetic — no gcds, no allocation.
     Equal values have equal numerators, so int equality on keys is
     still value equality and dedup/domination decisions are exactly
     those of the canonical encoding.

   - General mode: canonical small-tier parts (the [Rational] S
     invariant); a remainder outside the small tier is flagged by
     q_i = 0 and carried, in processor order, in a rare [bigs] side
     array. Canonical parts are the value's unique spelling (int
     equality is value equality), tiers are deterministic (the q = 0
     sentinel cannot collide with a real small denominator), and big
     remainders are compared with exact [Rational.equal] — the hash
     only routes, equality always decides.

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
module SR = Crs_num.Smallrat
open Crs_core

type stats = { layers : int list; generated : int; comparisons : int }
type solution = { makespan : int; schedule : Schedule.t; stats : stats }

module Key = struct
  type t = { ints : int array; bigs : Q.t array }

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
    && Array.length a.bigs = Array.length b.bigs
    && (let ab = a.bigs and bb = b.bigs in
        let nb = Array.length ab in
        let i = ref 0 in
        while !i < nb && Q.equal ab.(!i) bb.(!i) do incr i done;
        !i >= nb)

  let hash { ints; bigs } =
    let h = ref 0x811c9dc5 in
    for i = 0 to Array.length ints - 1 do
      h := (!h lxor ints.(i)) * 0x01000193 land max_int
    done;
    for i = 0 to Array.length bigs - 1 do
      h := (!h lxor Q.hash bigs.(i)) * 0x01000193 land max_int
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
  (* Requirements prefetched once: boxed rows plus small-tier parts
     (index n_i(i) holds the zero of the dummy job; reqq = 0 flags a
     bigint-tier requirement). *)
  let req_boxed =
    Array.init m (fun i ->
        Array.init
          (n_i.(i) + 1)
          (fun k ->
            if k < n_i.(i) then Job.requirement (Instance.job instance i k)
            else Q.zero))
  in
  let reqp = Array.map (fun row -> Array.make (Array.length row) 0) req_boxed in
  let reqq = Array.map (fun row -> Array.make (Array.length row) 0) req_boxed in
  Array.iteri
    (fun i row ->
      Array.iteri
        (fun k r ->
          if Q.is_small r then begin
            reqp.(i).(k) <- Q.small_num r;
            reqq.(i).(k) <- Q.small_den r
          end)
        row)
    req_boxed;
  (* Common-denominator mode (see header): lden = 0 disables it,
     otherwise reqn holds requirement numerators scaled to lden. The
     numerator cap keeps a sum over all m processors away from
     overflow (costs add at most m remainders). *)
  let lden, reqn =
    let max_num = (1 lsl 59) / max 1 m in
    let l = ref 1 and ok = ref true in
    Array.iter
      (Array.iter (fun q ->
           if q = 0 then ok := false
           else begin
             let l' = !l / Crs_num.Natural.gcd_int !l q * q in
             if l' > Q.small_bound then ok := false else l := l'
           end))
      reqq;
    if not !ok then (0, [||])
    else begin
      let scaled =
        Array.mapi
          (fun i row ->
            Array.mapi
              (fun k p ->
                let f = !l / reqq.(i).(k) in
                if p > max_num / f then ok := false;
                p * f)
              row)
          reqp
      in
      if !ok then (!l, scaled) else (0, [||])
    end
  in
  let klen = 3 * m in
  let jdx i = i
  and pdx i = m + (2 * i)
  and qdx i = m + (2 * i) + 1 in
  (* Boxed remainder of processor [i] in [key], canonicalized from the
     stored parts (or fetched from the side array: bigs are kept in
     ascending processor order). Only replay, big-tier compares and
     boxed fallbacks pay this. *)
  let rem_of (key : Key.t) i =
    let q = key.Key.ints.(qdx i) in
    if q <> 0 then SR.to_rational key.Key.ints.(pdx i) q
    else begin
      let bi = ref 0 in
      for j = 0 to i - 1 do
        if key.Key.ints.(qdx j) = 0 then incr bi
      done;
      key.Key.bigs.(!bi)
    end
  in
  let start =
    let ints = Array.make klen 0 in
    let bigs = ref [] in
    for i = m - 1 downto 0 do
      if lden <> 0 then begin
        ints.(pdx i) <- reqn.(i).(0);
        ints.(qdx i) <- lden
      end
      else begin
        let q = reqq.(i).(0) in
        ints.(pdx i) <- reqp.(i).(0);
        ints.(qdx i) <- q;
        if q = 0 then bigs := req_boxed.(i).(0) :: !bigs
      end
    done;
    {
      key =
        {
          Key.ints;
          bigs = (if !bigs = [] then [||] else Array.of_list !bigs);
        };
      parent = None;
    }
  in
  let is_final node =
    let ints = node.key.Key.ints in
    let i = ref 0 in
    while !i < m && ints.(jdx !i) >= n_i.(!i) do incr i done;
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
    (* Remainder order for processor [i], preferring the unboxed parts
       (equal denominators — always the case in common-denominator
       mode — compare by numerator, forming no products). *)
    let rem_cmp a b i =
      let qa = a.key.Key.ints.(qdx i) and qb = b.key.Key.ints.(qdx i) in
      if qa <> 0 && qb <> 0 then
        SR.compare a.key.Key.ints.(pdx i) qa b.key.Key.ints.(pdx i) qb
      else Q.compare (rem_of a.key i) (rem_of b.key i)
    in
    (* Processor [i]'s desirability order: more jobs done, then smaller
       remainder; negative when [a] is the more desirable. A total
       order per processor: equal means same job and same remainder. *)
    let proc_cmp a b i =
      let ja = a.key.Key.ints.(jdx i) and jb = b.key.Key.ints.(jdx i) in
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
            let d = gcnt.(base + !i) - ci.(jdx !i) in
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
                  if gcnt.(base + !i) = ci.(jdx !i) then
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
              gcnt.((g * m) + i) <- ci.(jdx i)
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
    let sk_ints = Array.make klen 0 in
    let sk = { Key.ints = sk_ints; bigs = [||] } in
    let actives = Array.make m 0 in
    let in_finished = Array.make m false in
    let cost = SR.out () and lo = SR.out () and vo = SR.out () in
    (* General mode's leftover for the current finish set: [lo] holds
       its small-tier parts, [lo_big] the value once it left the small
       tier; [lo_box] caches its boxed form, built at most once per
       mask (only for boxed fallbacks along partial successors). *)
    let lo_big = ref None in
    let lo_box = ref Q.zero and lo_have = ref false in
    let leftover_boxed () =
      if not !lo_have then begin
        (lo_box :=
           match !lo_big with
           | Some l -> l
           | None -> SR.to_rational lo.p lo.q);
        lo_have := true
      end;
      !lo_box
    in
    (* One dedup table for the whole solve, cleared (capacity kept)
       between layers: fig3-like instances have hundreds of tiny
       layers, where a fresh bucket array per layer dominates. *)
    let next : node H.t = H.create 64 in
    let rev_order = ref [] in
    (* Probe the scratch key ([bigs] lists any big-tier entries, in
       ascending processor order); on a miss, materialize and queue
       the successor of [nd]. *)
    let commit nd bigs =
      let probe =
        if bigs = [] then sk
        else { Key.ints = sk_ints; bigs = Array.of_list bigs }
      in
      if not (H.mem seen probe) && not (H.mem next probe) then begin
        let key = { Key.ints = Array.copy sk_ints; bigs = probe.Key.bigs } in
        let node = { key; parent = Some nd } in
        H.add next key node;
        rev_order := node :: !rev_order
      end
    in
    (* Emit one successor of [nd] for the finish set marked in
       [in_finished], in common-denominator mode: [partial] < 0
       finishes the set and wastes any leftover; otherwise processor
       [partial] keeps the remainder numerator [pnum]. Stores are raw
       (num, lden) pairs — never reduced — keeping the encoding uniform
       for dedup. *)
    let emit_cd nd partial pnum =
      Crs_util.Fuel.charge fuel;
      incr generated;
      let c_ints = nd.key.Key.ints in
      for i = m - 1 downto 0 do
        if in_finished.(i) then begin
          let j' = c_ints.(jdx i) + 1 in
          sk_ints.(jdx i) <- j';
          sk_ints.(pdx i) <- reqn.(i).(j');
          sk_ints.(qdx i) <- lden
        end
        else begin
          sk_ints.(jdx i) <- c_ints.(jdx i);
          sk_ints.(pdx i) <- (if i = partial then pnum else c_ints.(pdx i));
          sk_ints.(qdx i) <- c_ints.(qdx i)
        end
      done;
      commit nd []
    in
    (* The same in general mode: [partial] < 0 finishes the set and
       wastes any leftover; otherwise processor [partial] receives the
       leftover. *)
    let emit_general nd partial =
      Crs_util.Fuel.charge fuel;
      incr generated;
      let c_ints = nd.key.Key.ints in
      let bigs = ref [] in
      for i = m - 1 downto 0 do
        if in_finished.(i) then begin
          let j' = c_ints.(jdx i) + 1 in
          sk_ints.(jdx i) <- j';
          let q = reqq.(i).(j') in
          sk_ints.(pdx i) <- reqp.(i).(j');
          sk_ints.(qdx i) <- q;
          if q = 0 then bigs := req_boxed.(i).(j') :: !bigs
        end
        else if i = partial then begin
          sk_ints.(jdx i) <- c_ints.(jdx i);
          let p = c_ints.(pdx i) and q = c_ints.(qdx i) in
          if
            q <> 0
            && (match !lo_big with
               | None -> SR.sub vo p q lo.p lo.q
               | Some _ -> false)
          then begin
            sk_ints.(pdx i) <- vo.p;
            sk_ints.(qdx i) <- vo.q
          end
          else begin
            let v' = Q.sub (rem_of nd.key i) (leftover_boxed ()) in
            if Q.is_small v' then begin
              sk_ints.(pdx i) <- Q.small_num v';
              sk_ints.(qdx i) <- Q.small_den v'
            end
            else begin
              sk_ints.(pdx i) <- 0;
              sk_ints.(qdx i) <- 0;
              bigs := v' :: !bigs
            end
          end
        end
        else begin
          sk_ints.(jdx i) <- c_ints.(jdx i);
          sk_ints.(pdx i) <- c_ints.(pdx i);
          let q = c_ints.(qdx i) in
          sk_ints.(qdx i) <- q;
          if q = 0 then bigs := rem_of nd.key i :: !bigs
        end
      done;
      commit nd !bigs
    in
    let expand nd =
      let c_ints = nd.key.Key.ints in
      let k = ref 0 in
      for i = 0 to m - 1 do
        if c_ints.(jdx i) < n_i.(i) then begin
          actives.(!k) <- i;
          incr k
        end
      done;
      let k = !k in
      for mask = 1 to (1 lsl k) - 1 do
        if lden <> 0 then begin
          (* Common-denominator fast path: every remainder is a
             numerator over lden; the prefetch guard bounds sums, so
             nothing below can overflow. *)
          let cost_n = ref 0 in
          for b = 0 to k - 1 do
            if mask land (1 lsl b) <> 0 then begin
              let i = actives.(b) in
              in_finished.(i) <- true;
              cost_n := !cost_n + c_ints.(pdx i)
            end
          done;
          if !cost_n <= lden then begin
            let lo_n = lden - !cost_n in
            let has_other = ref false in
            for b = 0 to k - 1 do
              if not in_finished.(actives.(b)) then has_other := true
            done;
            if (not !has_other) || lo_n = 0 then emit_cd nd (-1) 0
            else
              for b = 0 to k - 1 do
                let p = actives.(b) in
                if (not in_finished.(p)) && c_ints.(pdx p) > lo_n then
                  emit_cd nd p (c_ints.(pdx p) - lo_n)
              done
          end;
          for b = 0 to k - 1 do
            if mask land (1 lsl b) <> 0 then in_finished.(actives.(b)) <- false
          done
        end
        else begin
          (* General path: canonical small-tier pairs with boxed
             fallbacks. Mark the finish set and accumulate its cost,
             staying on int pairs until a value leaves the small
             tier. *)
          cost.p <- 0;
          cost.q <- 1;
          let cost_big = ref None in
          for b = 0 to k - 1 do
            if mask land (1 lsl b) <> 0 then begin
              let i = actives.(b) in
              in_finished.(i) <- true;
              match !cost_big with
              | Some cb -> cost_big := Some (Q.add cb (rem_of nd.key i))
              | None ->
                let p = c_ints.(pdx i) and q = c_ints.(qdx i) in
                if not (q <> 0 && SR.add cost cost.p cost.q p q) then
                  cost_big :=
                    Some (Q.add (SR.to_rational cost.p cost.q) (rem_of nd.key i))
            end
          done;
          let cost_le_one =
            match !cost_big with
            | None -> cost.p <= cost.q
            | Some cb -> Q.(cb <= one)
          in
          if cost_le_one then begin
            (* leftover = 1 - cost; its parts inherit the cost's gcd. *)
            (lo_big :=
               match !cost_big with
               | None ->
                 ignore (SR.one_minus lo cost.p cost.q);
                 None
               | Some cb -> Some (Q.sub Q.one cb));
            lo_have := false;
            let leftover_zero =
              match !lo_big with None -> lo.p = 0 | Some l -> Q.is_zero l
            in
            let has_other = ref false in
            for b = 0 to k - 1 do
              if not in_finished.(actives.(b)) then has_other := true
            done;
            if (not !has_other) || leftover_zero then emit_general nd (-1)
            else
              (* Non-wasting: the leftover must go to some still-active
                 job it cannot finish; if it could finish one, the
                 larger finish set covers that choice. *)
              for b = 0 to k - 1 do
                let p = actives.(b) in
                if not in_finished.(p) then begin
                  let vq = c_ints.(qdx p) in
                  let v_gt_leftover =
                    match !lo_big with
                    | None when vq <> 0 ->
                      SR.compare c_ints.(pdx p) vq lo.p lo.q > 0
                    | _ -> Q.(rem_of nd.key p > leftover_boxed ())
                  in
                  if v_gt_leftover then emit_general nd p
                end
              done
          end;
          for b = 0 to k - 1 do
            if mask land (1 lsl b) <> 0 then in_finished.(actives.(b)) <- false
          done
        end
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
       parent's whole remainder); one whose remainder shrank at the
       same job received the leftover; everyone else got zero. Shares
       come out canonical boxed either way, so schedule bytes don't
       depend on the encoding mode. *)
    let shares_of parent child =
      Array.init m (fun i ->
          if child.key.Key.ints.(jdx i) > parent.key.Key.ints.(jdx i) then
            rem_of parent.key i
          else begin
            let unchanged =
              child.key.Key.ints.(pdx i) = parent.key.Key.ints.(pdx i)
              && child.key.Key.ints.(qdx i) = parent.key.Key.ints.(qdx i)
              && (child.key.Key.ints.(qdx i) <> 0
                 || Q.equal (rem_of child.key i) (rem_of parent.key i))
            in
            if unchanged then Q.zero
            else Q.sub (rem_of parent.key i) (rem_of child.key i)
          end)
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
