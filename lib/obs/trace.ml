module Stable_json = Crs_util.Stable_json

type value = Str of string | Int of int | Float of float | Bool of bool

type span = {
  name : string;
  attrs : (string * value) list;
  start_ns : int64;
  dur_ns : int64;
  tid : int;
  seq : int;
  depth : int;
}

type tree = { span : span; children : tree list }

let enabled_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag
let set_enabled b = Atomic.set enabled_flag b

(* Per-domain recording buffer. Only the owning domain mutates it; the
   collector reads after concurrent work has joined, so no lock guards
   the fields — only the registry of buffers is mutex-protected. *)
type buffer = {
  tid : int;
  mutable next_seq : int;
  mutable depth : int;
  mutable open_attrs : (string * value) list list;
      (* attribute stack for open spans, innermost first *)
  mutable recorded : span list; (* completion order, reversed *)
}

let registry_mu = Mutex.create ()
let buffers : buffer list ref = ref []
let next_tid = Atomic.make 0

let dls_key =
  Domain.DLS.new_key (fun () ->
      let b =
        {
          tid = Atomic.fetch_and_add next_tid 1;
          next_seq = 0;
          depth = 0;
          open_attrs = [];
          recorded = [];
        }
      in
      Mutex.lock registry_mu;
      buffers := b :: !buffers;
      Mutex.unlock registry_mu;
      b)

let buffer () = Domain.DLS.get dls_key

let record_span b ~attrs name f =
  let seq = b.next_seq in
  b.next_seq <- seq + 1;
  let depth = b.depth in
  b.depth <- depth + 1;
  b.open_attrs <- [] :: b.open_attrs;
  let start_ns = Clock.monotonic_ns () in
  let finish extra =
    let dur_ns = Int64.sub (Clock.monotonic_ns ()) start_ns in
    let added =
      match b.open_attrs with
      | hd :: tl ->
        b.open_attrs <- tl;
        List.rev hd
      | [] -> []
    in
    b.depth <- depth;
    b.recorded <-
      { name; attrs = attrs @ added @ extra; start_ns; dur_ns;
        tid = b.tid; seq; depth }
      :: b.recorded
  in
  match f () with
  | v ->
    finish [];
    v
  | exception e ->
    finish [ ("error", Str (Printexc.to_string e)) ];
    raise e

let with_span ?(attrs = []) name f =
  if not (Atomic.get enabled_flag) then f ()
  else record_span (buffer ()) ~attrs name f

let with_span_l lazy_attrs name f =
  if not (Atomic.get enabled_flag) then f ()
  else record_span (buffer ()) ~attrs:(lazy_attrs ()) name f

let add_attrs kvs =
  if Atomic.get enabled_flag then begin
    let b = buffer () in
    match b.open_attrs with
    | hd :: tl -> b.open_attrs <- (List.rev kvs @ hd) :: tl
    | [] -> ()
  end

let all_buffers () =
  Mutex.lock registry_mu;
  let bs = !buffers in
  Mutex.unlock registry_mu;
  bs

let spans () =
  all_buffers ()
  |> List.concat_map (fun b -> b.recorded)
  |> List.sort (fun (a : span) (b : span) ->
         compare (a.tid, a.seq) (b.tid, b.seq))

let reset () =
  List.iter
    (fun b ->
      b.recorded <- [];
      b.next_seq <- 0;
      b.depth <- 0;
      b.open_attrs <- [])
    (all_buffers ())

(* ---- attribute encoding (shared by every exporter) ---- *)

let value_json = function
  | Str s -> Stable_json.str s
  | Int i -> Stable_json.int i
  | Float f -> Stable_json.float f
  | Bool b -> Stable_json.bool b

let attrs_json attrs =
  Stable_json.obj (List.map (fun (k, v) -> (k, value_json v)) attrs)

(* ---- forest reconstruction ---- *)

type node = { nspan : span; mutable rev_children : node list }

let forest () =
  let roots = ref [] in
  let per_tid = Hashtbl.create 8 in
  List.iter
    (fun (s : span) ->
      let group =
        match Hashtbl.find_opt per_tid s.tid with
        | Some g -> g
        | None ->
          let g = ref [] in
          Hashtbl.add per_tid s.tid g;
          g
      in
      group := s :: !group)
    (spans ());
  Hashtbl.iter
    (fun _tid group ->
      (* Start order + depth fully determine nesting: walk spans in
         start order keeping the stack of currently-open ancestors. *)
      let ordered =
        List.sort (fun (a : span) (b : span) -> compare a.seq b.seq) !group
      in
      let stack = ref [] in
      List.iter
        (fun (s : span) ->
          while List.length !stack > s.depth do
            stack := List.tl !stack
          done;
          let node = { nspan = s; rev_children = [] } in
          (match !stack with
          | parent :: _ -> parent.rev_children <- node :: parent.rev_children
          | [] -> roots := node :: !roots);
          stack := node :: !stack)
        ordered)
    per_tid;
  let rec freeze n =
    { span = n.nspan; children = List.rev_map freeze n.rev_children }
  in
  let key t = (t.span.name, attrs_json t.span.attrs) in
  !roots |> List.map freeze |> List.sort (fun a b -> compare (key a) (key b))

let signature () =
  let buf = Buffer.create 256 in
  let rec render indent t =
    Buffer.add_string buf (String.make indent ' ');
    Buffer.add_string buf t.span.name;
    if t.span.attrs <> [] then Buffer.add_string buf (attrs_json t.span.attrs);
    Buffer.add_char buf '\n';
    List.iter (render (indent + 2)) t.children
  in
  List.iter (render 0) (forest ());
  Buffer.contents buf

(* ---- exporters ---- *)

let micros_since epoch ns = Int64.to_float (Int64.sub ns epoch) /. 1000.

let to_chrome () =
  let ss = spans () in
  let epoch =
    List.fold_left
      (fun acc s -> if s.start_ns < acc then s.start_ns else acc)
      Int64.max_int ss
  in
  let event s =
    Stable_json.obj
      [
        ("name", Stable_json.str s.name);
        ("cat", Stable_json.str "crs");
        ("ph", Stable_json.str "X");
        ("ts", Stable_json.float (micros_since epoch s.start_ns));
        ("dur", Stable_json.float (Int64.to_float s.dur_ns /. 1000.));
        ("pid", Stable_json.int 1);
        ("tid", Stable_json.int s.tid);
        ("args", attrs_json s.attrs);
      ]
  in
  Stable_json.obj
    [
      ("traceEvents", Stable_json.arr (List.map event ss));
      ("displayTimeUnit", Stable_json.str "ns");
    ]

let to_jsonl () =
  let line s =
    Stable_json.obj
      [
        ("name", Stable_json.str s.name);
        ("tid", Stable_json.int s.tid);
        ("seq", Stable_json.int s.seq);
        ("depth", Stable_json.int s.depth);
        ("start_ns", Int64.to_string s.start_ns);
        ("dur_ns", Int64.to_string s.dur_ns);
        ("attrs", attrs_json s.attrs);
      ]
    ^ "\n"
  in
  String.concat "" (List.map line (spans ()))
