(* The benchmark's view of the host: program processes it spawns and
   reaps, what /proc says about them, and the allocation probe that
   measures host speed while the program is idle. *)

let now_ns () = Int64.to_int (Crs_obs.Clock.monotonic_ns ())
let seconds_since t0 = float_of_int (now_ns () - t0) /. 1e9
let fail fmt = Printf.ksprintf failwith fmt

external wait4_raw : int -> int * int * int * float = "perfbench_wait4"
external set_subreaper : unit -> unit = "perfbench_set_subreaper"

let contains s needle =
  let n = String.length needle and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = needle || go (i + 1)) in
  go 0

(* ---- spawned programs ---- *)

type proc = {
  pid : int;
  err : Unix.file_descr;  (** the program's stderr, read for readiness *)
  pending : Buffer.t;
  mutable log : string list;  (** stderr lines seen so far, newest first *)
}

let spawn argv =
  let r, w = Unix.pipe ~cloexec:true () in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0 in
  let pid = Unix.create_process argv.(0) argv null null w in
  Unix.close w;
  Unix.close null;
  { pid; err = r; pending = Buffer.create 256; log = [] }

let stderr_tail p = String.concat " | " (List.rev p.log)

(* Block on the program's stderr until [n] lines containing [needle] have
   been written. The read returns the moment a line lands, so readiness is
   timed at the resolution of the monotonic clock rather than of a
   connect-polling interval. *)
let await_lines p ~needle ~n =
  let chunk = Bytes.create 4096 in
  let seen = ref 0 in
  while !seen < n do
    let k = Unix.read p.err chunk 0 (Bytes.length chunk) in
    if k = 0 then fail "program exited before it was ready: %s" (stderr_tail p);
    Buffer.add_subbytes p.pending chunk 0 k;
    let lines = String.split_on_char '\n' (Buffer.contents p.pending) in
    let rec split = function
      | [ partial ] ->
        Buffer.clear p.pending;
        Buffer.add_string p.pending partial
      | line :: rest ->
        p.log <- line :: p.log;
        if contains line needle then incr seen;
        split rest
      | [] -> ()
    in
    split lines
  done

(* Read the program's stderr to EOF, i.e. until every holder of the pipe
   has exited. *)
let drain_stderr p =
  let chunk = Bytes.create 4096 in
  let rec go () =
    match Unix.read p.err chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | k ->
      Buffer.add_subbytes p.pending chunk 0 k;
      go ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ();
  Unix.close p.err

type exit_info = { code : int; maxrss_kb : int; cpu_s : float }

let wait p =
  drain_stderr p;
  let _, code, maxrss_kb, cpu_s = wait4_raw p.pid in
  { code; maxrss_kb; cpu_s }

let kill pid = try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ()

(* ---- /proc ---- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* utime + stime of the whole process, in clock ticks. *)
let cpu_ticks pid =
  let s = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  let close = String.rindex s ')' in
  let fields =
    String.split_on_char ' '
      (String.sub s (close + 2) (String.length s - close - 2))
  in
  int_of_string (List.nth fields 11) + int_of_string (List.nth fields 12)

(* USER_HZ, the unit of /proc CPU times. *)
let ticks_per_s = 100.0

let status_field path key =
  read_file path |> String.split_on_char '\n'
  |> List.find_map (fun line ->
         match String.index_opt line ':' with
         | Some i when String.sub line 0 i = key ->
           let v = String.trim (String.sub line (i + 1) (String.length line - i - 1)) in
           Some (int_of_string (List.hd (String.split_on_char ' ' v)))
         | _ -> None)
  |> Option.value ~default:0

(* Peak resident set (VmHWM) of a live process, in KiB. *)
let vm_hwm_kb pid = status_field (Printf.sprintf "/proc/%d/status" pid) "VmHWM"

(* Context switches summed over the process's live threads. *)
let ctx_switches pid =
  let dir = Printf.sprintf "/proc/%d/task" pid in
  Array.fold_left
    (fun acc tid ->
      let path = Printf.sprintf "%s/%s/status" dir tid in
      match
        status_field path "voluntary_ctxt_switches"
        + status_field path "nonvoluntary_ctxt_switches"
      with
      | n -> acc + n
      | exception Sys_error _ -> acc)
    0 (Sys.readdir dir)

(* ---- the host probe ---- *)

(* A fixed allocation-heavy loop: short-lived lists, a rolling set of
   survivors that the minor GC promotes, and the major work that follows.
   Its time moves with the exact solvers' time under memory-subsystem
   contention, which an integer loop's does not. *)
let probe_iterations = 12_000

let probe_work () =
  let keep = Array.make 64 [] in
  let acc = ref 0 in
  for i = 0 to probe_iterations - 1 do
    let l = List.init 100 (fun j -> (i lxor j, j)) in
    let l = List.rev_map (fun (a, b) -> (b, a + b)) l in
    keep.(i land 63) <- l;
    match l with (a, _) :: _ -> acc := !acc + a | [] -> ()
  done;
  ignore (Sys.opaque_identity !acc)

(* One probe slice, run while every program process in [pids] is idle:
   [probe_work] on this domain and a second one at once, timed from a
   common start to the later finish. Two domains load both cores and
   share the runtime's stop-the-world minor collections, as the program's
   two workers do; a single-domain probe did not track exact-solve
   throughput at all.

   A slice during which any program process used CPU is discarded and
   re-run, as the program's work would inflate host.probe_ms. After four
   busy attempts the last one is kept and counted in [disturbed]: a
   balancer's health pings can land in a slice, and under heavy steal in
   several in a row. *)
let disturbed = ref 0

let probe_slice ~pids =
  let attempts = 4 in
  let rec go k =
    let before = List.map cpu_ticks pids in
    Gc.minor ();
    let start = Atomic.make false in
    let other =
      Domain.spawn (fun () ->
          while not (Atomic.get start) do Domain.cpu_relax () done;
          probe_work ())
    in
    let t0 = now_ns () in
    Atomic.set start true;
    probe_work ();
    Domain.join other;
    let ms = float_of_int (now_ns () - t0) /. 1e6 in
    if List.map cpu_ticks pids = before then ms
    else if k + 1 < attempts then go (k + 1)
    else begin
      incr disturbed;
      ms
    end
  in
  go 0

(* CPU time the hypervisor gave to other guests, and all CPU time, in
   ticks summed over all CPUs (/proc/stat). *)
let steal_and_total () =
  let line = List.hd (String.split_on_char '\n' (read_file "/proc/stat")) in
  match List.filter (( <> ) "") (String.split_on_char ' ' line) with
  | "cpu" :: fields ->
    let v = List.map int_of_string fields in
    (List.nth v 7, List.fold_left ( + ) 0 v)
  | _ -> fail "/proc/stat: unexpected first line %S" line

(* ---- order statistics ---- *)

let sorted a =
  let a = Array.copy a in
  Array.sort compare a;
  a

(* Nearest-rank percentile of an ascending array, p in [0,1]. *)
let percentile s p =
  let n = Array.length s in
  if n = 0 then nan
  else s.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

let median a = percentile (sorted a) 0.5

(* Children of process [parent], from /proc. *)
let children_of parent =
  Array.to_list (Sys.readdir "/proc")
  |> List.filter_map (fun entry ->
         match int_of_string_opt entry with
         | None -> None
         | Some pid -> (
           match read_file (Printf.sprintf "/proc/%d/stat" pid) with
           | s ->
             let close = String.rindex s ')' in
             let fields =
               String.split_on_char ' '
                 (String.sub s (close + 2) (String.length s - close - 2))
             in
             if int_of_string (List.nth fields 1) = parent then Some pid else None
           | exception Sys_error _ -> None))

(* Kill and reap one program process [pid], a child of this process, and
   the processes it started (a balancer's shards). The parent dies first,
   so it cannot respawn a shard; the shards are then re-parented to this
   process (a subreaper) and reaped here. *)
let kill_tree pid =
  let kids = children_of pid in
  kill pid;
  ignore (wait4_raw pid);
  List.iter kill kids;
  List.iter (fun k -> ignore (wait4_raw k)) kids

(* Kill and reap every child of this process, then the workers their
   deaths re-parent to it, until none is left. *)
let rec kill_children () =
  match children_of (Unix.getpid ()) with
  | [] -> ()
  | kids ->
    List.iter kill kids;
    List.iter (fun pid -> ignore (wait4_raw pid)) kids;
    kill_children ()
