let monotonic_ns = Crs_obs.Trace.monotonic_ns

module Client = Frontend.Lines

type arrival =
  | Closed_loop
  | Poisson of { rate : float }
  | Bursty of { burst : int; rate : float }

type stats = {
  sent : int;
  received : int;
  duration_ns : int64;
  throughput_rps : float;
  p50_ms : float;
  p99_ms : float;
  max_ms : float;
  latencies_ms : float array;
}

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let rank = int_of_float (ceil (p *. float_of_int n)) - 1 in
    sorted.(max 0 (min (n - 1) rank))

let exp_gap_ns st rate =
  let u = Random.State.float st 1.0 in
  Int64.of_float (-.log (1.0 -. u) /. rate *. 1e9)

(* Planned send offsets (ns from workload start) for an open-loop
   arrival process; [Closed_loop] has no plan — the response clocks it. *)
let offsets st arrival n =
  match arrival with
  | Closed_loop -> [||]
  | Poisson { rate } ->
    let t = ref 0L in
    Array.init n (fun _ ->
        t := Int64.add !t (exp_gap_ns st rate);
        !t)
  | Bursty { burst; rate } ->
    let burst = max 1 burst in
    let t = ref 0L in
    Array.init n (fun i ->
        if i mod burst = 0 then t := Int64.add !t (exp_gap_ns st rate);
        !t)

let finish ~sent ~received ~first_send ~last_recv latencies =
  let duration_ns =
    if Int64.compare last_recv first_send > 0 then
      Int64.sub last_recv first_send
    else 0L
  in
  let duration_s = Int64.to_float duration_ns /. 1e9 in
  let sorted = Array.copy latencies in
  Array.sort compare sorted;
  {
    sent;
    received;
    duration_ns;
    throughput_rps =
      (if duration_s > 0.0 then float_of_int received /. duration_s else 0.0);
    p50_ms = percentile sorted 0.50;
    p99_ms = percentile sorted 0.99;
    max_ms = percentile sorted 1.0;
    latencies_ms = sorted;
  }

let run ?(seed = 1) (client : Client.t) ~arrival ~requests =
  let requests = Array.of_list requests in
  let n = Array.length requests in
  if n = 0 then
    finish ~sent:0 ~received:0 ~first_send:0L ~last_recv:0L [||]
  else
    match arrival with
    | Closed_loop ->
      let latencies = Array.make n 0.0 in
      let first_send = ref 0L and last_recv = ref 0L in
      let received = ref 0 in
      Array.iteri
        (fun i line ->
          let t0 = monotonic_ns () in
          if i = 0 then first_send := t0;
          Client.send_line client line;
          match Client.recv_line client with
          | None -> ()
          | Some _ ->
            let t1 = monotonic_ns () in
            last_recv := t1;
            latencies.(i) <- Int64.to_float (Int64.sub t1 t0) /. 1e6;
            incr received)
        requests;
      finish ~sent:n ~received:!received ~first_send:!first_send
        ~last_recv:!last_recv
        (Array.sub latencies 0 !received)
    | Poisson _ | Bursty _ ->
      let st = Random.State.make [| seed |] in
      let plan = offsets st arrival n in
      let send_times = Array.make n 0L in
      let latencies = Array.make n 0.0 in
      let sent = ref 0 and received = ref 0 in
      let start = monotonic_ns () in
      let last_recv = ref start in
      let absorb_ready () =
        let rec pop () =
          match Client.pop_line client with
          | Some _ ->
            let now = monotonic_ns () in
            last_recv := now;
            if !received < n then begin
              latencies.(!received) <-
                Int64.to_float (Int64.sub now send_times.(!received)) /. 1e6;
              incr received
            end;
            pop ()
          | None -> ()
        in
        pop ()
      in
      while !received < n && not (Client.eof client) do
        absorb_ready ();
        if !received < n && not (Client.eof client) then begin
          let now = monotonic_ns () in
          if !sent < n && Int64.compare (Int64.sub now start) plan.(!sent) >= 0
          then begin
            send_times.(!sent) <- now;
            Client.send_line client requests.(!sent);
            incr sent
          end
          else begin
            let timeout =
              if !sent < n then
                let wait_ns =
                  Int64.sub (Int64.add start plan.(!sent)) now
                in
                max 0.0 (Int64.to_float wait_ns /. 1e9)
              else 1.0
            in
            match Unix.select [ Client.fd client ] [] [] timeout with
            | [], _, _ -> ()
            | _ -> Client.fill client
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
          end
        end
      done;
      absorb_ready ();
      finish ~sent:!sent ~received:!received ~first_send:start
        ~last_recv:!last_recv
        (Array.sub latencies 0 !received)

(* Multi-connection mode: the workload is split round-robin across k
   clients, each driven by its own thread under the same arrival shape
   with a seed derived deterministically from [seed] and the connection
   index — one master seed reproduces the whole cross-connection
   schedule. Per-connection response matching stays positional (each
   connection's responses come back in its own request order); the
   aggregate merges every connection's latency samples, so percentiles
   are over the full request population, and clocks throughput on the
   slowest connection's span. *)
let run_multi ?(seed = 1) clients ~arrival ~requests =
  let k = Array.length clients in
  if k = 0 then invalid_arg "Loadgen.run_multi: no clients";
  let slices = Array.make k [] in
  List.iteri (fun i r -> slices.(i mod k) <- r :: slices.(i mod k)) requests;
  let slices = Array.map List.rev slices in
  let empty = finish ~sent:0 ~received:0 ~first_send:0L ~last_recv:0L [||] in
  let results = Array.make k empty in
  let threads =
    Array.mapi
      (fun c client ->
        Thread.create
          (fun () ->
            results.(c) <-
              run ~seed:(seed + (31 * c)) client ~arrival
                ~requests:slices.(c))
          ())
      clients
  in
  Array.iter Thread.join threads;
  let all =
    Array.concat (Array.to_list (Array.map (fun s -> s.latencies_ms) results))
  in
  Array.sort compare all;
  let sum f = Array.fold_left (fun acc s -> acc + f s) 0 results in
  let duration_ns =
    Array.fold_left (fun acc s -> Int64.max acc s.duration_ns) 0L results
  in
  let duration_s = Int64.to_float duration_ns /. 1e9 in
  let received = sum (fun s -> s.received) in
  {
    sent = sum (fun s -> s.sent);
    received;
    duration_ns;
    throughput_rps =
      (if duration_s > 0.0 then float_of_int received /. duration_s else 0.0);
    p50_ms = percentile all 0.50;
    p99_ms = percentile all 0.99;
    max_ms = percentile all 1.0;
    latencies_ms = all;
  }
