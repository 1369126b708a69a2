(* The timed window: load segments, each followed by a gap in which the
   program under load is idle.

   Host speed drifts by up to 1.7x over minutes on the shared machines
   this benchmark targets, through memory-subsystem contention and CPU
   time the hypervisor gives to other guests (steal). The steal during
   each segment and each gap is read from /proc/stat. A gap holds a few
   cold starts, timed for set-up, and then a host-probe slice; one more
   probe slice runs before the first segment. Spreading the cold starts
   over the window, rather than timing them in one burst, lets set-up see
   the same host as the load does and be filtered by the same steal
   readings; it also keeps them off a CPU just woken from idle, which
   made the first starts of a burst two to five times slower. *)

type 'a t = {
  planned : int;  (** segments the window was sized for *)
  segments : 'a array;
  steal : float array;  (** share of the machine's CPU time stolen by the
                            hypervisor during each segment *)
  setups : float list array;  (** cold-start times of the gap after each
                                  segment, in seconds *)
  gap_steal : float array;  (** share stolen during those cold starts *)
  probes_ms : float array;  (** one more than [segments] *)
}

let calm_steal = 0.01

let stolen_during f =
  let s0, t0 = Host.steal_and_total () in
  let r = f () in
  let s1, t1 = Host.steal_and_total () in
  (r, float_of_int (s1 - s0) /. float_of_int (max 1 (t1 - t0)))

type 'a step = {
  result : 'a;
  stolen : float;
  starts_s : float list;
  gap_stolen : float;
  probe : float;
}

(* Calm segments a window needs: half of the [k] it was sized for. *)
let needed k = (k + 1) / 2

(* Segments of about [segment_s] seconds, at least three, each followed
   by [starts] calls of [cold_start] (seconds from spawn to the first
   answer). While fewer than half of them were calm (steal at most
   [calm_steal]), up to half as many again are run while the host stays
   busy with other guests. Their spells of 5-30% steal last one to
   several minutes, so a longer wait would rarely outlast one. *)
let run ~seconds ~segment_s ~pids ~(segment : float -> 'a) ~cold_start ~starts =
  let k = max 3 (int_of_float (Float.round (seconds /. segment_s))) in
  let seg_s = seconds /. float_of_int k in
  let probe () = Host.probe_slice ~pids in
  let rec go i acc =
    let calm = List.length (List.filter (fun s -> s.stolen <= calm_steal) acc) in
    if i >= k && (calm >= needed k || i >= k + (k / 2)) then Array.of_list (List.rev acc)
    else begin
      let result, stolen = stolen_during (fun () -> segment seg_s) in
      let starts_s, gap_stolen =
        stolen_during (fun () -> List.init starts (fun _ -> cold_start ()))
      in
      go (i + 1) ({ result; stolen; starts_s; gap_stolen; probe = probe () } :: acc)
    end
  in
  let first = probe () in
  let steps = go 0 [] in
  {
    planned = k;
    segments = Array.map (fun s -> s.result) steps;
    steal = Array.map (fun s -> s.stolen) steps;
    setups = Array.map (fun s -> s.starts_s) steps;
    gap_steal = Array.map (fun s -> s.gap_stolen) steps;
    probes_ms = Array.append [| first |] (Array.map (fun s -> s.probe) steps);
  }

let probe_ms t = Host.median t.probes_ms

(* The segments metrics are taken from: the calm ones, or, when fewer
   than [needed] are calm, that many of the least stolen. A segment that
   other guests hit measures them rather than the program. *)
let quiet t =
  let all = List.init (Array.length t.segments) Fun.id in
  let calm = List.filter (fun i -> t.steal.(i) <= calm_steal) all in
  if List.length calm >= needed t.planned then calm
  else
    List.stable_sort (fun a b -> compare t.steal.(a) t.steal.(b)) all
    |> List.filteri (fun rank _ -> rank < needed t.planned)
    |> List.sort compare

(* The gaps set-up is taken from: those after a quiet segment in which no
   CPU time was stolen during the cold starts themselves, or after every
   quiet segment when each such gap saw some. *)
let quiet_gaps t =
  let q = quiet t in
  match List.filter (fun i -> t.gap_steal.(i) <= calm_steal) q with [] -> q | g -> g

let steal_note t =
  let q = quiet t in
  Printf.sprintf
    "host steal: %.1f%% median over %d segments; metrics from the %d with at most %.1f%%, \
     set-up from the cold starts of %d gaps"
    (100.0 *. Host.median t.steal) (Array.length t.steal) (List.length q)
    (100.0 *. List.fold_left (fun acc i -> Float.max acc t.steal.(i)) 0.0 q)
    (List.length (quiet_gaps t))
