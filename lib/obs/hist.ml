let buckets_n = 64

(* The count is the buckets' sum, so a reader never sees a count that
   disagrees with them. *)
type t = {
  counts : int Atomic.t array; (* counts.(k): see bucket_of *)
  sum : int Atomic.t;
  max : int Atomic.t;
}

let create () =
  {
    counts = Array.init buckets_n (fun _ -> Atomic.make 0);
    sum = Atomic.make 0;
    max = Atomic.make 0;
  }

(* bucket 0: v <= 0; bucket k >= 1: 2^(k-1) <= v < 2^k *)
let bucket_of v =
  if v <= 0 then 0
  else begin
    let k = ref 0 in
    while v lsr !k > 0 do
      k := !k + 1
    done;
    min !k (buckets_n - 1)
  end

let observe t v =
  Atomic.incr t.counts.(bucket_of v);
  ignore (Atomic.fetch_and_add t.sum v);
  let rec raise_max () =
    let m = Atomic.get t.max in
    if v > m && not (Atomic.compare_and_set t.max m v) then raise_max ()
  in
  raise_max ()

let count t = Array.fold_left (fun acc c -> acc + Atomic.get c) 0 t.counts
let sum t = Atomic.get t.sum
let max t = Atomic.get t.max

(* The top reachable bucket's edge, 2^62, is past max_int on 63-bit ints. *)
let upper_edge k =
  if k = 0 then 0 else if k >= Sys.int_size - 1 then max_int else 1 lsl k

let quantile_upper t q =
  let total = count t in
  if total = 0 then 0
  else begin
    let rank = Stdlib.max 1 (int_of_float (ceil (q *. float_of_int total))) in
    let edge = ref 0 and seen = ref 0 and k = ref 0 in
    while !seen < rank && !k < buckets_n do
      let c = Atomic.get t.counts.(!k) in
      if c > 0 then begin
        seen := !seen + c;
        edge := upper_edge !k
      end;
      incr k
    done;
    !edge
  end

let buckets t =
  let acc = ref [] in
  for k = buckets_n - 1 downto 0 do
    let c = Atomic.get t.counts.(k) in
    if c > 0 then acc := ((if k = 0 then 0 else 1 lsl (k - 1)), c) :: !acc
  done;
  !acc

let reset t =
  Array.iter (fun a -> Atomic.set a 0) t.counts;
  Atomic.set t.sum 0;
  Atomic.set t.max 0
