(* In-memory spans for the traced run, recorded around the benchmark's own
   calls into each layer's public functions. Each span has a name, start
   and end, its parent span and a request id, plus the minor and promoted
   words the calling domain allocated inside it. Spans are kept in memory
   and written out once the run ends. Not thread-safe: spans are opened
   on the main thread only. *)

type t = {
  id : int;
  parent : int;  (** -1 at the root *)
  req : int;  (** -1 when the span belongs to no single request *)
  name : string;
  t0 : int;
  t1 : int;  (** monotonic ns *)
  minor : float;
  promoted : float;
}

let enabled = ref true
let recorded : t list ref = ref []
let next_id = ref 0
let stack : int list ref = ref []

(* Words a span around nothing reports: subtracted from every span so
   allocation counts are the wrapped call's alone. *)
let overhead_minor = ref 0.0

let with_ ?(req = -1) name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    stack := id :: !stack;
    let m0, p0, _ = Gc.counters () in
    let t0 = Host.now_ns () in
    let r = f () in
    let t1 = Host.now_ns () in
    let m1, p1, _ = Gc.counters () in
    stack := List.tl !stack;
    recorded :=
      { id; parent; req; name; t0; t1; minor = m1 -. m0 -. !overhead_minor; promoted = p1 -. p0 }
      :: !recorded;
    r
  end

let calibrate () =
  overhead_minor := 0.0;
  ignore (with_ "calibrate" ignore);
  match !recorded with
  | s :: rest ->
    overhead_minor := s.minor;
    recorded := rest
  | [] -> ()

let duration_us s = float_of_int (s.t1 - s.t0) /. 1e3

let named name = List.filter (fun s -> s.name = name) !recorded

(* Self time of every span named [name]: its duration minus the part of
   it that its children cover. *)
let self_us name =
  let covered = Hashtbl.create 1024 in
  List.iter
    (fun c ->
      if c.parent >= 0 then
        Hashtbl.replace covered c.parent
          (duration_us c +. Option.value (Hashtbl.find_opt covered c.parent) ~default:0.0))
    !recorded;
  List.map
    (fun s -> duration_us s -. Option.value (Hashtbl.find_opt covered s.id) ~default:0.0)
    (named name)

let write path =
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\":%d,\"parent\":%d,\"req\":%d,\"name\":%S,\"start_ns\":%d,\"end_ns\":%d,\
             \"minor_words\":%.0f,\"promoted_words\":%.0f}\n"
            s.id s.parent s.req s.name s.t0 s.t1 s.minor s.promoted)
        (List.rev !recorded))
