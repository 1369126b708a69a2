module Q = Crs_num.Rational
open Crs_core

(* Memo keys are the DFS state: next-job indices and remaining
   requirements per processor. Keyed hashing through [Rational.hash] /
   [Rational.equal] replaces the old polymorphic hash of
   [(int list * Q.t list)]: no list conversion per probe, and no
   dependence of the hash on the rationals' internal representation
   (the two-tier split would otherwise silently change bucket
   placement semantics). The arrays are never mutated after a node is
   entered — children operate on copies — so they are safe to store. *)
module Key = struct
  type t = int array * Q.t array

  let equal (ja, va) (jb, vb) =
    let len = Array.length ja in
    len = Array.length jb
    && (let rec go i =
          i >= len || (ja.(i) = jb.(i) && Q.equal va.(i) vb.(i) && go (i + 1))
        in
        go 0)

  let hash (j, v) =
    let h = ref 17 in
    Array.iter (fun x -> h := ((!h * 31) + x) land max_int) j;
    Array.iter (fun x -> h := ((!h * 31) + Q.hash x) land max_int) v;
    !h
end

module Memo = Hashtbl.Make (Key)

type counters = { visited : int; memo_hits : int; memo_misses : int }

let solve ?(node_limit = 2_000_000) instance =
  if not (Instance.is_unit_size instance) then
    invalid_arg "Brute_force: unit-size jobs only";
  let m = Instance.m instance in
  let n i = Instance.n_i instance i in
  let req i k = if k < n i then Job.requirement (Instance.job instance i k) else Q.zero in
  (* Suffix work sums: work of jobs k, k+1, … on processor i. *)
  let suffix =
    Array.init m (fun i ->
        let s = Array.make (n i + 1) Q.zero in
        for k = n i - 1 downto 0 do
          s.(k) <- Q.add s.(k + 1) (req i k)
        done;
        s)
  in
  let best = ref (Greedy_balance.makespan instance) in
  let visited = ref 0 in
  let memo_hits = ref 0 and memo_misses = ref 0 in
  let memo : int Memo.t = Memo.create 4096 in
  let fuel = Crs_util.Fuel.meter () in
  let rec dfs t (j : int array) (v : Q.t array) =
    Crs_util.Fuel.charge fuel;
    incr visited;
    if !visited > node_limit then failwith "Brute_force: node limit exceeded";
    let actives = List.filter (fun i -> j.(i) < n i) (Crs_util.Misc.range m) in
    if actives = [] then begin
      if t < !best then best := t
    end
    else begin
      (* Lower bounds: total remaining work at aggregate speed 1, and the
         one-job-per-step limit per processor. *)
      let work =
        List.fold_left
          (fun acc i -> Q.add acc (Q.add v.(i) suffix.(i).(j.(i) + 1)))
          Q.zero actives
      in
      let lb_work = Q.ceil_int work in
      let lb_jobs = List.fold_left (fun acc i -> max acc (n i - j.(i))) 0 actives in
      if t + max lb_work lb_jobs < !best then begin
        let key = (j, v) in
        let skip =
          match Memo.find_opt memo key with
          | Some t' when t' <= t ->
            incr memo_hits;
            true
          | _ ->
            incr memo_misses;
            false
        in
        if not skip then begin
          Memo.replace memo key t;
          (* Enumerate finish sets (non-empty, cost <= 1) and the optional
             partial investment of the leftover. *)
          let arr = Array.of_list actives in
          let k = Array.length arr in
          for mask = 1 to (1 lsl k) - 1 do
            let cost = ref Q.zero in
            for b = 0 to k - 1 do
              if mask land (1 lsl b) <> 0 then cost := Q.add !cost v.(arr.(b))
            done;
            if Q.(!cost <= one) then begin
              let leftover = Q.sub Q.one !cost in
              let apply_finish () =
                let j' = Array.copy j and v' = Array.copy v in
                for b = 0 to k - 1 do
                  if mask land (1 lsl b) <> 0 then begin
                    let i = arr.(b) in
                    j'.(i) <- j.(i) + 1;
                    v'.(i) <- req i j'.(i)
                  end
                done;
                (j', v')
              in
              let others =
                List.filter (fun b -> mask land (1 lsl b) = 0) (Crs_util.Misc.range k)
              in
              if others = [] || Q.is_zero leftover then begin
                let j', v' = apply_finish () in
                dfs (t + 1) j' v'
              end
              else
                List.iter
                  (fun b ->
                    let p = arr.(b) in
                    if Q.(v.(p) > leftover) then begin
                      let j', v' = apply_finish () in
                      v'.(p) <- Q.sub v.(p) leftover;
                      dfs (t + 1) j' v'
                    end)
                  others
            end
          done
        end
      end
    end
  in
  let j0 = Array.make m 0 in
  let v0 = Array.init m (fun i -> req i 0) in
  Crs_obs.Trace.with_span_l
    (fun () -> [ ("m", Crs_obs.Trace.Int m) ])
    "brute_force.search"
    (fun () ->
      dfs 0 j0 v0;
      if Crs_obs.Trace.enabled () then
        Crs_obs.Trace.add_attrs
          [
            ("visited", Crs_obs.Trace.Int !visited);
            ("memo_hits", Crs_obs.Trace.Int !memo_hits);
            ("memo_misses", Crs_obs.Trace.Int !memo_misses);
            ("best", Crs_obs.Trace.Int !best);
          ]);
  if Crs_obs.Metrics.enabled () then begin
    let probes = !memo_hits + !memo_misses in
    if probes > 0 then
      Crs_obs.Metrics.set
        (Crs_obs.Metrics.gauge "brute_force.memo_hit_ratio")
        (float_of_int !memo_hits /. float_of_int probes);
    Crs_obs.Metrics.observe
      (Crs_obs.Metrics.histogram "brute_force.nodes_visited")
      !visited
  end;
  ( !best,
    { visited = !visited; memo_hits = !memo_hits; memo_misses = !memo_misses } )

let makespan ?node_limit instance = fst (solve ?node_limit instance)
