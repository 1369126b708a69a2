(* The load generator: line-framed crs-serve/1 connections and a
   closed loop over at most two of them. Connection 0 runs on the
   calling thread and connection 1 on one extra thread, so the process
   never has more than two threads issuing requests. *)

module Conn = struct
  type t = {
    fd : Unix.file_descr;
    buf : Bytes.t;
    mutable pos : int;
    mutable len : int;
    line : Buffer.t;
  }

  let connect path =
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX path);
    { fd; buf = Bytes.create 65536; pos = 0; len = 0; line = Buffer.create 4096 }

  let send t s =
    let s = s ^ "\n" in
    let n = String.length s in
    let rec go off =
      if off < n then go (off + Unix.write_substring t.fd s off (n - off))
    in
    go 0

  (* Next response line without its newline; [None] at EOF. *)
  let recv t =
    Buffer.clear t.line;
    let rec go () =
      if t.pos = t.len then begin
        t.pos <- 0;
        t.len <- Unix.read t.fd t.buf 0 (Bytes.length t.buf)
      end;
      if t.len = 0 then None
      else
        match Bytes.index_from_opt t.buf t.pos '\n' with
        | Some nl when nl < t.len ->
          Buffer.add_subbytes t.line t.buf t.pos (nl - t.pos);
          t.pos <- nl + 1;
          Some (Buffer.contents t.line)
        | _ ->
          Buffer.add_subbytes t.line t.buf t.pos (t.len - t.pos);
          t.pos <- t.len;
          go ()
    in
    go ()

  let rpc t s =
    send t s;
    match recv t with
    | Some r -> r
    | None -> failwith "connection closed by the program"

  let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()
end

(* One answered (or lost) request of a closed loop. *)
type sample = {
  index : int;  (** position in the request stream *)
  latency_ns : int;
  response : string option;  (** [None]: the connection closed first *)
}

type segment = { samples : sample array; wall_s : float }

(* Drive [conns] closed-loop until [seconds] have passed or [next] runs
   dry: each connection sends its next request only after the previous
   answer arrived. [next ()] returns the next request's stream index and
   line. *)
let closed_loop conns ~seconds ~(next : unit -> (int * string) option) =
  let t0 = Host.now_ns () in
  let deadline = t0 + int_of_float (seconds *. 1e9) in
  let drive conn =
    let out = ref [] in
    let rec go () =
      if Host.now_ns () < deadline then
        match next () with
        | None -> ()
        | Some (index, line) ->
          let s = Host.now_ns () in
          Conn.send conn line;
          let response = Conn.recv conn in
          out := { index; latency_ns = Host.now_ns () - s; response } :: !out;
          if response <> None then go ()
    in
    go ();
    !out
  in
  let second = ref [] in
  let helper =
    if Array.length conns > 1 then
      Some (Thread.create (fun c -> second := drive c) conns.(1))
    else None
  in
  let first = drive conns.(0) in
  Option.iter Thread.join helper;
  let wall_s = Host.seconds_since t0 in
  let samples = Array.of_list (List.rev_append first (List.rev !second)) in
  Array.sort (fun a b -> compare a.index b.index) samples;
  { samples; wall_s }

let all_samples segments =
  Array.concat (Array.to_list (Array.map (fun s -> s.samples) segments))

(* A thread-safe cursor over a request stream, starting at index [from]. *)
let cursor ~from (line : int -> string option) =
  let m = Mutex.create () in
  let i = ref from in
  fun () ->
    Mutex.protect m (fun () ->
        let k = !i in
        match line k with
        | Some l ->
          incr i;
          Some (k, l)
        | None -> None)
