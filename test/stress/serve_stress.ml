(* Concurrent serve-frontend stress for the @stress alias: 4 live
   connections over Frontend.Lines — a heavy closed-loop pass (one
   thread per connection), a burst pass (a sender thread per connection
   writes bursts of 25 while the connection's own thread reads), then a
   maximally-pipelined byte-identity pass against single-connection
   goldens — plus exact connection accounting and a graceful shutdown.
   Tier-1 runs the same frontend at smoke scale (test_serve); this is
   the torture loop. *)

module S = Crs_serve.Server
module Lines = Crs_serve.Frontend.Lines
module P = Crs_serve.Protocol
module J = Crs_util.Stable_json

let solve_line instance =
  J.obj
    [
      ("proto", J.str P.version);
      ("kind", J.str "solve");
      ("instance", J.str (Crs_core.Instance.to_string instance));
    ]

let stats_int json path =
  let rec walk json = function
    | [] -> Some json
    | k :: rest -> Option.bind (J.member k json) (fun j -> walk j rest)
  in
  match walk json path with
  | Some (J.Int v) -> v
  | _ -> failwith ("serve stress: stats lack " ^ String.concat "." path)

let () =
  let conns = 4 in
  (* Queue above the pipelined pass's worst case (4 x 200 solves all in
     admission at once), so nothing sheds and byte-identity is total. *)
  let config =
    {
      S.default_config with
      S.workers = 2;
      queue = 1024;
      cache_capacity = 64;
      default_fuel = None;
      drain_grace_s = 0.1;
    }
  in
  let server = S.create config in
  let spec =
    { Crs_generators.Random_gen.default_spec with m = 3; jobs_min = 2; jobs_max = 4 }
  in
  let instances =
    Array.init 16 (fun i ->
        Crs_generators.Random_gen.instance ~spec (Random.State.make [| 500 + i |]))
  in
  (* Goldens prewarm the cache, so every concurrent response is the
     canonical bytes whatever the interleaving. *)
  let golden = Array.map (fun i -> S.handle_line server (solve_line i)) instances in
  let fds =
    Array.init conns (fun _ -> Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0)
  in
  let readers =
    Array.map
      (fun (sfd, _) ->
        match S.attach server sfd with
        | Some th -> th
        | None -> failwith "serve stress: connection refused below max-conns")
      fds
  in
  let clients = Array.map (fun (_, cfd) -> Lines.of_fd cfd) fds in
  (* Request k of a pass goes to connection k mod conns; each connection
     reads its answers back in its own request order. *)
  let slice c n = List.init (n / conns) (fun j -> (c + (j * conns)) mod 16) in
  let on_each_conn f =
    let counts = Array.make conns 0 in
    let threads =
      Array.mapi
        (fun c cl -> Thread.create (fun () -> counts.(c) <- f c cl) ())
        clients
    in
    Array.iter Thread.join threads;
    Array.fold_left ( + ) 0 counts
  in
  let answered cl k =
    match Lines.recv_line cl with
    | Some r when String.equal r golden.(k) -> 1
    | _ -> 0
  in
  let closed =
    on_each_conn (fun c cl ->
        List.fold_left
          (fun acc k ->
            Lines.send_line cl (solve_line instances.(k));
            acc + answered cl k)
          0 (slice c 2000))
  in
  if closed <> 2000 then
    failwith
      (Printf.sprintf "closed-loop: %d of 2000 answered byte-identically"
         closed);
  Printf.printf "stress ok: closed-loop %d requests over %d connections\n%!"
    closed conns;
  (* Bursts of 25 back-to-back lines, 25 ms apart, written by a sender
     thread while this connection's thread is already reading. *)
  let bursty =
    on_each_conn (fun c cl ->
        let ks = slice c 1000 in
        let sender =
          Thread.create
            (fun () ->
              List.iteri
                (fun j k ->
                  if j > 0 && j mod 25 = 0 then Thread.delay 0.025;
                  Lines.send_line cl (solve_line instances.(k)))
                ks)
            ()
        in
        let n = List.fold_left (fun acc k -> acc + answered cl k) 0 ks in
        Thread.join sender;
        n)
  in
  if bursty <> 1000 then
    failwith
      (Printf.sprintf "bursty: %d of 1000 answered byte-identically" bursty);
  Printf.printf "stress ok: bursty %d requests over %d connections\n%!"
    bursty conns;
  (* Maximal interleaving: every connection pipelines its whole slice
     in one burst of writes, then reads back positionally; each
     response must be byte-identical to the single-connection golden. *)
  let pipelined =
    on_each_conn (fun c cl ->
        let ks = List.init 200 (fun j -> (c + j) mod 16) in
        List.iter (fun k -> Lines.send_line cl (solve_line instances.(k))) ks;
        List.fold_left (fun acc k -> acc + answered cl k) 0 ks)
  in
  if pipelined <> conns * 200 then
    failwith
      (Printf.sprintf "%d concurrent responses diverged from the goldens"
         ((conns * 200) - pipelined));
  Printf.printf "stress ok: %d pipelined responses byte-identical\n%!"
    pipelined;
  let stats =
    match J.parse (J.obj (S.stats_payload server)) with
    | Ok v -> v
    | Error msg -> failwith ("serve stress: stats unparseable: " ^ msg)
  in
  if stats_int stats [ "connections"; "accepted" ] <> conns then
    failwith "accepted count wrong";
  if stats_int stats [ "connections"; "refused" ] <> 0 then
    failwith "spurious refusals";
  if stats_int stats [ "connections"; "live" ] <> conns then
    failwith "live count wrong";
  if stats_int stats [ "latency"; "solve"; "count" ] < 2000 + 1000 + (conns * 200)
  then failwith "solve latency histogram missed requests";
  let shutdown_line =
    J.obj [ ("proto", J.str P.version); ("kind", J.str "shutdown") ]
  in
  ignore (Lines.rpc clients.(0) shutdown_line);
  Array.iter Thread.join readers;
  Array.iter
    (fun (_, cfd) -> try Unix.close cfd with Unix.Unix_error _ -> ())
    fds;
  S.drain server;
  Printf.printf "serve stress passed: %d connections, %d requests\n"
    conns
    (2000 + 1000 + (conns * 200))
