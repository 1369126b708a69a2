(* Randomized differential tester for Rational.

   Every sampled operation runs twice: once through {!Rational} (whatever
   representation it uses internally — since the two-tier small/bigint
   split, results may live in either tier) and once through a reference
   implementation kept deliberately naive: plain Bigint numerator /
   denominator pairs, normalized with the array-based gcd, no fast paths
   at all. Any divergence in value, ordering, rounding, printing or
   hashing is reported as a mismatch.

   The operand generator is biased toward the representation's fault
   lines: tiny paper-style fractions (the small tier), numerators and
   denominators adjacent to [max_int] and to the small-tier bound
   (forced-spill cases), and genuinely multi-limb values (the bigint
   tier). Results are fed back into the operand pool, so long chains of
   operations exercise the spill/renormalize transitions in both
   directions.

   Parsing gets the same treatment: generated spellings go through
   [Rational.of_string] and through a reference parse that reads each
   part with [Bigint.of_string], and the two must agree on the value and
   its tier, or else on the exception and its message. *)

module Q = Rational

(* ---------- reference implementation: pure bigint pairs ---------- *)

module Ref = struct
  type t = { num : Bigint.t; den : Bigint.t }
  (* den > 0, gcd(|num|, den) = 1, num = 0 implies den = 1 — the same
     canonical form Rational documents, derived independently. *)

  let norm num den =
    let s = Bigint.sign den in
    if s = 0 then raise Division_by_zero;
    let num = if s < 0 then Bigint.neg num else num in
    let den = Bigint.abs den in
    if Bigint.is_zero num then { num = Bigint.zero; den = Bigint.one }
    else begin
      let g = Bigint.of_natural (Bigint.gcd num den) in
      { num = Bigint.div num g; den = Bigint.div den g }
    end

  let add a b =
    norm
      (Bigint.add (Bigint.mul a.num b.den) (Bigint.mul b.num a.den))
      (Bigint.mul a.den b.den)

  let neg a = { a with num = Bigint.neg a.num }
  let abs a = { a with num = Bigint.abs a.num }
  let sub a b = add a (neg b)
  let mul a b = norm (Bigint.mul a.num b.num) (Bigint.mul a.den b.den)
  let div a b = norm (Bigint.mul a.num b.den) (Bigint.mul a.den b.num)
  let inv a = norm a.den a.num

  let compare a b =
    Bigint.compare (Bigint.mul a.num b.den) (Bigint.mul b.num a.den)

  let sign a = Bigint.sign a.num

  let floor a = Bigint.div a.num a.den

  let ceil a =
    let q, r = Bigint.divmod a.num a.den in
    if Bigint.is_zero r then q else Bigint.add q Bigint.one

  let to_string a =
    if Bigint.equal a.den Bigint.one then Bigint.to_string a.num
    else Bigint.to_string a.num ^ "/" ^ Bigint.to_string a.den

  let to_int_opt a =
    if Bigint.equal a.den Bigint.one then Bigint.to_int_opt a.num else None

  (* An integer or fraction spelling, read part by part: trim, reject a
     bare sign, split at the first '/', trim each part. The denominator
     is read first, as in [Rational]'s bigint parse, so a spelling wrong
     in both parts raises the denominator's error. *)
  let parse s =
    let s = String.trim s in
    if s = "" || s = "+" || s = "-" then
      invalid_arg "Rational.of_string: empty or bare sign";
    match String.index_opt s '/' with
    | None -> norm (Bigint.of_string s) Bigint.one
    | Some i ->
      let part a b = Bigint.of_string (String.trim (String.sub s a (b - a))) in
      let den = part (i + 1) (String.length s) in
      let num = part 0 i in
      norm num den

  let fits_small a =
    Bigint.compare_int (Bigint.abs a.num) Q.small_bound <= 0
    && Bigint.compare_int a.den Q.small_bound <= 0
end

(* ---------- operand generation ---------- *)

(* Interesting signed integers, as Bigint so both sides build from the
   same input. Buckets cover: tiny values (small tier), values adjacent
   to the small-tier spill bound and to max_int (forced spills, overflow
   checks in the int fast paths), and multi-limb values. *)
let gen_bigint st =
  let small_edge = Q.small_bound in
  let pick = Random.State.int st 100 in
  let n =
    if pick < 45 then Random.State.int st 25 - 12
    else if pick < 60 then Random.State.int st 2_000_001 - 1_000_000
    else if pick < 72 then begin
      (* around the small-tier bound *)
      let d = Random.State.int st 7 - 3 in
      (if Random.State.bool st then small_edge + d else -small_edge + d)
    end
    else if pick < 84 then begin
      (* around max_int / min_int *)
      let d = Random.State.int st 4 in
      if Random.State.bool st then max_int - d else min_int + d
    end
    else 0
  in
  if pick < 84 then Bigint.of_int n
  else begin
    (* multi-limb: (10^k + j) with k past the int range *)
    let k = 19 + Random.State.int st 10 in
    let b = Bigint.pow (Bigint.of_int 10) k in
    let b = Bigint.add b (Bigint.of_int (Random.State.int st 1000)) in
    if Random.State.bool st then b else Bigint.neg b
  end

let gen_pair st =
  let num = gen_bigint st in
  let den = ref (gen_bigint st) in
  while Bigint.is_zero !den do den := gen_bigint st done;
  (num, !den)

(* Spellings of integers and fractions, biased toward where a
   machine-int parse and the bigint parse could part ways: leading
   zeros, signs on either part, 17-20 digit parts, parts beside the
   small-tier bound and max_int, zero denominators, blanks around the
   token and its parts, and the prefixes and separators [int_of_string]
   accepts but [Natural.of_string] does not. *)
let gen_part st =
  let digits n =
    String.init n (fun _ -> Char.chr (48 + Random.State.int st 10))
  in
  let edge = Random.State.int st 3 - 1 in
  let body =
    match Random.State.int st 10 with
    | 0 | 1 -> string_of_int (Random.State.int st 1000)
    | 2 -> String.make (1 + Random.State.int st 3) '0' ^ string_of_int (Random.State.int st 1000)
    | 3 -> digits (17 + Random.State.int st 4)
    | 4 -> string_of_int (Q.small_bound + edge)
    | 5 ->
      (* max_int - 1, max_int and max_int + 1 = 4611686018427387904 *)
      if edge < 1 then string_of_int (max_int + edge) else "4611686018427387904"
    | 6 -> String.make (Random.State.int st 3) '0'
    | 7 -> [| "0x1F"; "0b1"; "0o7"; "1_000"; "0u1"; "1e3"; "1 0"; "x"; "" |].(Random.State.int st 9)
    | _ -> string_of_int (1 + Random.State.int st 24)
  in
  let sign = [| ""; ""; ""; "-"; "+"; "--" |].(Random.State.int st 6) in
  sign ^ body

let gen_spelling st =
  let blank () =
    [| ""; ""; ""; " "; "\t"; "\r"; "\012"; "\n"; " \t\r\012 " |].(Random.State.int st 9)
  in
  let token =
    if Random.State.int st 4 = 0 then gen_part st
    else if Random.State.int st 8 = 0 then gen_part st ^ blank () ^ "/" ^ blank () ^ gen_part st
    else gen_part st ^ "/" ^ gen_part st
  in
  blank () ^ token ^ blank ()

(* ---------- the differential run ---------- *)

type outcome = { ops : int; spellings : int; mismatches : string list }

let ok outcome = outcome.mismatches = []

let describe outcome =
  match outcome.mismatches with
  | [] ->
    Printf.sprintf "ok (%d ops, %d spellings, 0 mismatches)" outcome.ops
      outcome.spellings
  | ms ->
    Printf.sprintf "%d mismatches in %d ops and %d spellings; first: %s"
      (List.length ms) outcome.ops outcome.spellings (List.hd ms)

let binary_ops = [| "add"; "sub"; "mul"; "div"; "min"; "max" |]
let unary_ops = [| "neg"; "abs"; "inv" |]

let run ?(ops = 10_000) ~seed () =
  let st = Random.State.make [| seed; 0x5eed |] in
  let mismatches = ref [] in
  let report fmt = Printf.ksprintf (fun s -> mismatches := s :: !mismatches) fmt in
  (* The operand pool: pairs (fast, reference) built from identical
     bigint input, refreshed with operation results so chains compound. *)
  let pool_size = 64 in
  let fresh () =
    let num, den = gen_pair st in
    (Q.make num den, Ref.norm num den)
  in
  let pool = Array.init pool_size (fun _ -> fresh ()) in
  (* Results re-enter the pool so operation chains compound across the
     tier boundary — but unboundedly: repeated multiplication would
     breed numbers with thousands of limbs and the quadratic-time bigint
     layer would dominate the run. Oversized results are still audited,
     just not recycled. *)
  let recyclable (z, _) =
    let limbs b = Natural.num_limbs (Bigint.abs_natural b) in
    limbs (Q.num z) <= 6 && limbs (Q.den z) <= 6
  in
  let recycle zr =
    if recyclable zr then pool.(Random.State.int st pool_size) <- zr
  in
  let audit ctx (x, r) =
    (* Value agreement is checked on canonical strings: both sides
       document the same canonical form, so printing must agree
       exactly. *)
    let sx = Q.to_string x and sr = Ref.to_string r in
    if not (String.equal sx sr) then report "%s: value %s, reference %s" ctx sx sr;
    if not (Q.is_canonical x) then report "%s: non-canonical representation %s" ctx sx;
    if Q.sign x <> Ref.sign r then report "%s: sign of %s" ctx sx;
    (match (Q.to_int_opt x, Ref.to_int_opt r) with
    | Some a, Some b when a = b -> ()
    | None, None -> ()
    | _ -> report "%s: to_int_opt of %s" ctx sx);
    if not (Bigint.equal (Q.floor x) (Ref.floor r)) then
      report "%s: floor of %s" ctx sx;
    if not (Bigint.equal (Q.ceil x) (Ref.ceil r)) then report "%s: ceil of %s" ctx sx;
    (* print/parse round trip on the canonical form *)
    if not (Q.equal x (Q.of_string sx)) then report "%s: of_string(to_string %s)" ctx sx
  in
  Array.iteri (fun i xr -> audit (Printf.sprintf "init %d" i) xr) pool;
  for op = 1 to ops do
    let i = Random.State.int st pool_size and j = Random.State.int st pool_size in
    let x, rx = pool.(i) and y, ry = pool.(j) in
    let which = Random.State.int st 10 in
    if which < 6 then begin
      (* binary arithmetic *)
      let name = binary_ops.(Random.State.int st (Array.length binary_ops)) in
      let attempt =
        match name with
        | "add" -> Some (Q.add x y, Ref.add rx ry)
        | "sub" -> Some (Q.sub x y, Ref.sub rx ry)
        | "mul" -> Some (Q.mul x y, Ref.mul rx ry)
        | "div" ->
          if Q.is_zero y then None else Some (Q.div x y, Ref.div rx ry)
        | "min" ->
          Some (Q.min x y, if Ref.compare rx ry <= 0 then rx else ry)
        | "max" ->
          Some (Q.max x y, if Ref.compare rx ry >= 0 then rx else ry)
        | _ -> assert false
      in
      match attempt with
      | None -> ()
      | Some zr ->
        audit (Printf.sprintf "op %d: %s" op name) zr;
        recycle zr
    end
    else if which < 8 then begin
      let name = unary_ops.(Random.State.int st (Array.length unary_ops)) in
      let attempt =
        match name with
        | "neg" -> Some (Q.neg x, Ref.neg rx)
        | "abs" -> Some (Q.abs x, Ref.abs rx)
        | "inv" -> if Q.is_zero x then None else Some (Q.inv x, Ref.inv rx)
        | _ -> assert false
      in
      match attempt with
      | None -> ()
      | Some zr ->
        audit (Printf.sprintf "op %d: %s" op name) zr;
        recycle zr
    end
    else begin
      (* comparisons and hashing: consistency across the tier split is
         exactly what a representation bug would break. *)
      let c = Q.compare x y and rc = Ref.compare rx ry in
      if Stdlib.compare c 0 <> Stdlib.compare rc 0 then
        report "op %d: compare %s %s = %d, reference %d" op (Q.to_string x)
          (Q.to_string y) c rc;
      if Q.equal x y <> (rc = 0) then
        report "op %d: equal %s %s" op (Q.to_string x) (Q.to_string y);
      if rc = 0 && Q.hash x <> Q.hash y then
        report "op %d: hash split for equal values %s" op (Q.to_string x);
      if Q.(x <= y) <> (rc <= 0) || Q.(x < y) <> (rc < 0) then
        report "op %d: ordering operators disagree on %s vs %s" op
          (Q.to_string x) (Q.to_string y)
    end
  done;
  let spellings = ops / 2 in
  for _ = 1 to spellings do
    let s = gen_spelling st in
    let result f = match f s with v -> Ok v | exception e -> Error (Printexc.to_string e) in
    match (result Q.of_string, result Ref.parse) with
    | Ok x, Ok r ->
      if not (String.equal (Q.to_string x) (Ref.to_string r)) then
        report "parse %S: value %s, reference %s" s (Q.to_string x) (Ref.to_string r)
      else if Q.is_small x <> Ref.fits_small r || not (Q.is_canonical x) then
        report "parse %S: %s in the wrong tier" s (Q.to_string x)
    | Error e, Error e' when String.equal e e' -> ()
    | Ok x, Error e -> report "parse %S: %s, reference raises %s" s (Q.to_string x) e
    | Error e, Ok r -> report "parse %S: raises %s, reference %s" s e (Ref.to_string r)
    | Error e, Error e' -> report "parse %S: raises %s, reference raises %s" s e e'
  done;
  { ops; spellings; mismatches = List.rev !mismatches }

let run_exn ?ops ~seed () =
  let outcome = run ?ops ~seed () in
  if not (ok outcome) then
    failwith ("Rational differential check failed: " ^ describe outcome);
  outcome
