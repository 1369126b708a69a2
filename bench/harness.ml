(* The one in-process timing path of the gated experiments in main.ml.

   Every timed call starts from a settled heap: a full major collection
   first, so the major slices owed by the previous call (or by setup
   code that allocated differently) never land inside this one — left
   alone, inherited GC debt moves per-call times by several percent and
   whole sections by up to 2x. Times come from Crs_obs.Clock: the
   monotonic wall clock by default, process CPU time where the bound
   being checked is smaller than wall-clock scheduler noise. *)

type clock = Wall | Cpu

let now = function
  | Wall -> Crs_obs.Clock.monotonic_ns ()
  | Cpu -> Crs_obs.Clock.cputime_ns ()

(* [f ()] and the seconds it took on [clock], from a settled heap. *)
let time ?(clock = Wall) f =
  Gc.full_major ();
  let t0 = now clock in
  let r = Sys.opaque_identity (f ()) in
  (r, Int64.to_float (Int64.sub (now clock) t0) /. 1e9)

let seconds ?clock f = snd (time ?clock f)

let best_of ?clock ~reps f =
  let best = ref infinity in
  for _ = 1 to reps do
    best := Float.min !best (seconds ?clock f)
  done;
  !best

let median a =
  let s = Array.copy a in
  Array.sort compare s;
  let n = Array.length s in
  if n land 1 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.0

type paired = {
  best_a : float;
  best_b : float;
  ratio : float; (* median over reps of b's time / a's time *)
}

(* Paired reps of two variants. The warm-ups come first: the first
   calls in a process run slower while the heap sizes itself (and, for
   campaigns, while domains spawn), so every retained rep sits in the
   stable late-process position. Each rep then times both variants
   back-to-back, a first on even reps and b first on odd ones, and
   contributes one b/a ratio. Machine-speed drift hits both halves of a
   pair and cancels out of the ratio; a slow phase that lands between
   the halves skews only that rep, and the median discards it. *)
let paired ?clock ~warmups ~reps a b =
  for _ = 1 to warmups do
    ignore (seconds ?clock a);
    ignore (seconds ?clock b)
  done;
  let best_a = ref infinity and best_b = ref infinity in
  let ratios =
    Array.init reps (fun i ->
        let sa, sb =
          if i land 1 = 0 then
            let sa = seconds ?clock a in
            (sa, seconds ?clock b)
          else
            let sb = seconds ?clock b in
            (seconds ?clock a, sb)
        in
        best_a := Float.min !best_a sa;
        best_b := Float.min !best_b sb;
        sb /. Float.max sa 1e-9)
  in
  { best_a = !best_a; best_b = !best_b; ratio = median ratios }

(* Seconds per call of [f], from batches that double in size until one
   runs for at least [budget] seconds (the last batch is the reading). *)
let per_call ~budget f =
  let rec go n =
    let s =
      seconds (fun () ->
          for _ = 1 to n do
            ignore (Sys.opaque_identity (f ()))
          done)
    in
    if s >= budget then s /. float_of_int n else go (2 * n)
  in
  go 1

(* Words [f ()] allocates on the minor heap. Exact and repeatable while
   tracing and metrics are off. *)
let minor_words f =
  let w0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  Gc.minor_words () -. w0

let write file json =
  Out_channel.with_open_text file (fun oc -> Out_channel.output_string oc json);
  Printf.printf "wrote %s\n" file
