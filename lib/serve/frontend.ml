(* The connection frontend shared by `crsched serve` and `crsched
   balance`: accept loop, one reader thread per connection under
   max_conns, line framing, oversized-frame poisoning, mid-frame idle
   eviction, the drain-grace window and the connection counters. What a
   connection's lines mean is the session's business (Server.process_batch
   or the balancer's shard routing); everything about the connection
   itself lives here, once. *)

module J = Crs_util.Stable_json

let now_s () = Int64.to_float (Crs_obs.Clock.monotonic_ns ()) /. 1e9

let write_all fd s =
  let len = String.length s in
  let rec go off =
    if off < len then go (off + Unix.write_substring fd s off (len - off))
  in
  go 0

(* ---- line framing ---- *)

module Lines = struct
  type t = {
    fd : Unix.file_descr;
    chunk : Bytes.t;
    partial : Buffer.t;  (* bytes after the last newline read *)
    lines : string Queue.t;  (* complete lines not yet taken *)
    mutable eof : bool;
  }

  let of_fd fd =
    {
      fd;
      chunk = Bytes.create 65536;
      partial = Buffer.create 256;
      lines = Queue.create ();
      eof = false;
    }

  let fd t = t.fd
  let eof t = t.eof
  let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()
  let send_line t line = write_all t.fd (line ^ "\n")
  let pop_line t = Queue.take_opt t.lines
  let partial_bytes t = Buffer.length t.partial

  let take_lines t =
    let lines = List.of_seq (Queue.to_seq t.lines) in
    Queue.clear t.lines;
    lines

  let take_rest t =
    let rest = Buffer.contents t.partial in
    Buffer.clear t.partial;
    rest

  (* One read(2); only the fresh bytes are scanned for newlines, since
     [partial] never holds one. A reset peer reads as EOF. *)
  let fill t =
    match Unix.read t.fd t.chunk 0 (Bytes.length t.chunk) with
    | 0 -> t.eof <- true
    | n ->
      let rec newline i =
        if i < n && Bytes.get t.chunk i <> '\n' then newline (i + 1) else i
      in
      let rec split off =
        let nl = newline off in
        Buffer.add_subbytes t.partial t.chunk off (nl - off);
        if nl < n then begin
          Queue.push (take_rest t) t.lines;
          split (nl + 1)
        end
      in
      split 0
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
      t.eof <- true

  let recv_line ?timeout_s t =
    let deadline = Option.map (fun s -> now_s () +. s) timeout_s in
    let rec go () =
      match pop_line t with
      | Some _ as line -> line
      | None when t.eof -> None
      | None -> (
        match deadline with
        | None ->
          fill t;
          go ()
        | Some deadline -> (
          (* The deadline bounds the whole receive, not one read: a peer
             that answers in drips still has to finish in time. *)
          let remaining = deadline -. now_s () in
          if remaining <= 0.0 then None
          else
            match Unix.select [ t.fd ] [] [] remaining with
            | [], _, _ -> go ()
            | _ ->
              fill t;
              go ()
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()))
    in
    go ()

  let rpc t line =
    send_line t line;
    match recv_line t with
    | Some response -> response
    | None -> failwith "Frontend.Lines.rpc: connection closed"
end

(* ---- sessions ---- *)

type config = {
  max_conns : int;
  idle_timeout_s : float;
  drain_grace_s : float;
  max_line_bytes : int;
}

type session = {
  handle : string list -> string list;
  refuse : string -> string;
  close : unit -> unit;
}

let draining line =
  let p = Protocol.parse line in
  let req =
    match p.Protocol.body with
    | Ok r -> Protocol.kind_of_request r
    | Error _ -> "unknown"
  in
  Protocol.respond ~id:p.Protocol.id ~req (Protocol.draining ())

let connection_event fd payload =
  try write_all fd (Protocol.respond ~id:None ~req:"connection" payload ^ "\n")
  with Unix.Unix_error _ -> ()

(* accepted = reader spawned, refused = turned away at max_conns,
   evicted = closed by us (mid-frame deadline or an oversized frame),
   drained = closed during graceful drain. *)
type t = {
  config : config;
  stopping : unit -> bool;
  live : int Atomic.t;
  accepted : int Atomic.t;
  refused : int Atomic.t;
  evicted : int Atomic.t;
  drained : int Atomic.t;
}

let create config ~stopping =
  (* A dead peer must surface as a connection-local EPIPE, not as the
     process-default SIGPIPE termination. Set here rather than in a main
     so that embedders (tests, benches, the balancer) get the daemon's
     semantics. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  {
    config;
    stopping;
    live = Atomic.make 0;
    accepted = Atomic.make 0;
    refused = Atomic.make 0;
    evicted = Atomic.make 0;
    drained = Atomic.make 0;
  }

let connections_json t =
  let get c = J.int (Atomic.get c) in
  J.obj
    [
      ("live", J.int (Atomic.get t.live));
      ("max", J.int t.config.max_conns);
      ("accepted", get t.accepted);
      ("refused", get t.refused);
      ("evicted", get t.evicted);
      ("drained", get t.drained);
    ]

type ending = Eof | Evicted | Drained

(* Reads chunks, answers each chunk's complete lines as one batch,
   writes the answers in request order. [idle_timeout_s] > 0 evicts a
   connection that sits mid-frame (a line was started but no byte has
   arrived for that long); a quiet connection with no partial frame is
   just idle and stays. [drain_grace_s] is how long after a stop the
   session keeps answering late requests with [refuse] before closing.
   Whatever goes wrong here ends this session only. *)
let run_session t s ~input ~output ~idle_timeout_s ~drain_grace_s =
  let frames = Lines.of_fd input in
  let answer lines =
    match List.filter (fun l -> String.trim l <> "") lines with
    | [] -> ()
    | lines ->
      let responses =
        if t.stopping () then List.map s.refuse lines else s.handle lines
      in
      write_all output (String.concat "\n" responses ^ "\n")
  in
  let max_line = t.config.max_line_bytes in
  let last_activity = ref (now_s ()) and stop_seen = ref None in
  let rec loop () =
    if !stop_seen = None && t.stopping () then stop_seen := Some (now_s ());
    match !stop_seen with
    | Some since when now_s () -. since >= drain_grace_s -> Drained
    | _ -> (
      (* Short select slices, so a stop and the idle deadline are noticed
         promptly even on a silent connection. *)
      match Unix.select [ input ] [] [] 0.05 with
      | [], _, _ ->
        if
          !stop_seen = None && idle_timeout_s > 0.0
          && Lines.partial_bytes frames > 0
          && now_s () -. !last_activity > idle_timeout_s
        then begin
          connection_event output (Protocol.evicted ~idle_s:idle_timeout_s);
          Evicted
        end
        else loop ()
      | _ ->
        Lines.fill frames;
        if Lines.eof frames then begin
          (* A final unterminated line is still a request. *)
          answer [ Lines.take_rest frames ];
          Eof
        end
        else begin
          last_activity := now_s ();
          let lines = Lines.take_lines frames in
          if
            List.exists (fun l -> String.length l > max_line) lines
            || Lines.partial_bytes frames > max_line
          then begin
            (* The rest of the buffer is untrustworthy, and answering
               past it would desynchronize: answer, then cut loose. *)
            connection_event output (Protocol.oversized ~limit:max_line);
            Evicted
          end
          else begin
            answer lines;
            loop ()
          end
        end
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ())
  in
  loop ()

let serve_io t s ~input ~output =
  Fun.protect ~finally:s.close (fun () ->
      ignore
        (run_session t s ~input ~output ~idle_timeout_s:0.0 ~drain_grace_s:0.0))

(* Readers are systhreads, not domains: a reader is IO-bound (select,
   read and batch-await all release the runtime lock), so hundreds can
   share one domain while the solving runs on the executor's domains. *)
let attach t session fd =
  (* Child processes (the balancer's shards) must not inherit a client
     fd: a copy held elsewhere keeps the connection from reaching EOF. *)
  (try Unix.set_close_on_exec fd with Unix.Unix_error _ -> ());
  (* fetch_and_add then check: two racing attaches cannot both slip
     under the limit. *)
  if Atomic.fetch_and_add t.live 1 >= t.config.max_conns then begin
    Atomic.decr t.live;
    Atomic.incr t.refused;
    connection_event fd (Protocol.overloaded ());
    (try Unix.close fd with Unix.Unix_error _ -> ());
    None
  end
  else begin
    Atomic.incr t.accepted;
    let reader () =
      let s = session () in
      Fun.protect
        ~finally:(fun () ->
          s.close ();
          Atomic.decr t.live;
          try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          match
            run_session t s ~input:fd ~output:fd
              ~idle_timeout_s:t.config.idle_timeout_s
              ~drain_grace_s:t.config.drain_grace_s
          with
          | Eof -> ()
          | Evicted -> Atomic.incr t.evicted
          | Drained -> Atomic.incr t.drained
          | exception
              Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
            (* The peer vanished mid-write; its reader dies alone. *)
            ())
    in
    Some (Thread.create reader ())
  end

let serve t session fd =
  let readers = ref [] in
  while not (t.stopping ()) do
    match Unix.select [ fd ] [] [] 0.05 with
    | [], _, _ -> ()
    | _ -> (
      match Unix.accept fd with
      | conn, _ ->
        Option.iter (fun r -> readers := r :: !readers) (attach t session conn)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  (* Graceful drain: stop accepting, then wait for every reader to
     finish its batch, refuse latecomers for the grace window and close. *)
  List.iter Thread.join !readers
