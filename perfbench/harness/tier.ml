(* The program under test as users run it: `crsched serve` and
   `crsched balance` subprocesses listening on Unix sockets inside the
   benchmark's work directory. *)

type t = {
  proc : Host.proc;
  socket : string;
  shards : int;  (** 0 for a single `crsched serve` *)
}

let serve ~crsched ~dir ~name =
  let socket = Filename.concat dir (name ^ ".sock") in
  let proc = Host.spawn [| crsched; "serve"; "--listen"; "unix:" ^ socket |] in
  { proc; socket; shards = 0 }

(* `crsched balance --shards N --workers 1`, warm-started from [warm]. *)
let balance ~crsched ~dir ~name ~shards ~warm =
  let socket = Filename.concat dir (name ^ ".sock") in
  let argv =
    [|
      crsched; "balance"; "--shards"; string_of_int shards; "--workers"; "1";
      "--listen"; "unix:" ^ socket;
      "--socket-dir"; Filename.concat dir (name ^ "-shards");
      "--warm-state"; warm;
    |]
  in
  { proc = Host.spawn argv; socket; shards }

(* Block until the tier is ready: the front's "listening on" line and, for
   a balancer, one from every shard — a shard prints it only after its
   warm replay has finished. *)
let await_ready t = Host.await_lines t.proc ~needle:"listening on" ~n:(t.shards + 1)

let pid t = t.proc.Host.pid

let stats conn =
  match
    Crs_util.Stable_json.parse
      (Load.Conn.rpc conn {|{"proto":"crs-serve/1","kind":"stats"}|})
  with
  | Ok j -> j
  | Error e -> Host.fail "stats response is not JSON: %s" e

let rec path j = function
  | [] -> Some j
  | k :: rest -> Option.bind (Crs_util.Stable_json.member k j) (fun v -> path v rest)

let int_at j keys =
  match path j keys with Some (Crs_util.Stable_json.Int n) -> n | _ -> 0

(* Shard pids as the balancer reports them. *)
let shard_pids stats =
  match path stats [ "balancer"; "shard" ] with
  | Some (Crs_util.Stable_json.List shards) ->
    List.map (fun s -> int_at s [ "pid" ]) shards
  | _ -> []

(* Graceful stop through the protocol; returns once every process exited.
   The tier must be the only program running: any child left is killed. *)
let shutdown t conn =
  ignore (Load.Conn.rpc conn {|{"proto":"crs-serve/1","kind":"shutdown"}|});
  Load.Conn.close conn;
  let info = Host.wait t.proc in
  Host.kill_children ();
  if info.Host.code <> 0 then
    Host.fail "program exited with code %d after shutdown: %s" info.Host.code
      (Host.stderr_tail t.proc)

(* Hard stop of this tier alone, for cold starts whose only purpose was
   to time set-up. *)
let kill t =
  Host.kill_tree (pid t);
  Unix.close t.proc.Host.err
