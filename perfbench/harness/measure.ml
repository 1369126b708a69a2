(* End-to-end metrics from a timed window. *)

(* The median of the cold starts timed in the window's quiet gaps
   (Window.quiet_gaps). *)
let setup_e2e (w : _ Window.t) =
  let starts = List.concat_map (fun i -> w.Window.setups.(i)) (Window.quiet_gaps w) in
  { Outcome.name = "setup_s"; unit_ = "s"; value = Host.median (Array.of_list starts) }

let rss_e2e kb = { Outcome.name = "rss_peak_mb"; unit_ = "MB"; value = float_of_int kb /. 1024.0 }

(* Completed units per second, the median over the window's quiet
   segments (Window.quiet), and latency percentiles over those segments'
   samples pooled, so that the tail holds enough samples beyond p99.
   [per_segment] holds (count, wall seconds, latencies in ms). Returns the
   metrics and a note stating the sample counts. *)
let rate_and_latency (w : _ Window.t) per_segment =
  let quiet = List.map (fun i -> per_segment.(i)) (Window.quiet w) in
  let rate =
    Host.median (Array.of_list (List.map (fun (c, wall, _) -> float_of_int c /. wall) quiet))
  in
  let lat = Host.sorted (Array.concat (List.map (fun (_, _, l) -> l) quiet)) in
  let n = Array.length lat in
  let total = Array.fold_left (fun acc (_, _, l) -> acc + Array.length l) 0 per_segment in
  ( [
      { Outcome.name = "throughput_rps"; unit_ = "1/s"; value = rate };
      { Outcome.name = "latency_p50_ms"; unit_ = "ms"; value = Host.percentile lat 0.50 };
      { Outcome.name = "latency_p99_ms"; unit_ = "ms"; value = Host.percentile lat 0.99 };
    ],
    Printf.sprintf "latency samples: %d of %d from quiet segments, %d beyond p99" n total
      (n - int_of_float (ceil (0.99 *. float_of_int n))) )

(* A serve workload: answered requests and their client-side latencies. *)
let serve_e2e (w : Load.segment Window.t) =
  rate_and_latency w
    (Array.map
       (fun (seg : Load.segment) ->
         let answered =
           List.filter (fun s -> s.Load.response <> None) (Array.to_list seg.Load.samples)
         in
         ( List.length answered,
           seg.Load.wall_s,
           Array.of_list (List.map (fun s -> float_of_int s.Load.latency_ns /. 1e6) answered) ))
       w.Window.segments)
