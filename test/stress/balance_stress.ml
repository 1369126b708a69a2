(* Balancer slow-loris eviction for the @stress alias: `crsched balance
   --max-conns 2` with two connections that each send half a frame and
   stall. Once serve's default 30 s mid-frame deadline has passed, both
   must be answered [evicted] and closed, and a third client must then
   be admitted and served. Slow by construction, hence not in tier-1
   (test_serve and test_balance cover the other connection cases on both
   frontends).

   Usage: balance_stress.exe PATH-TO-crsched.exe *)

module J = Crs_util.Stable_json
module P = Crs_serve.Protocol
module Lines = Crs_serve.Frontend.Lines

let fail fmt = Printf.ksprintf failwith fmt

let request kind extra =
  J.obj ([ ("proto", J.str P.version); ("kind", J.str kind) ] @ extra)

let member path line =
  let rec walk json = function
    | [] -> Some json
    | k :: rest -> Option.bind (J.member k json) (fun j -> walk j rest)
  in
  match J.parse line with Ok json -> walk json path | Error _ -> None

let status line =
  match member [ "status" ] line with Some (J.Str s) -> s | _ -> line

let () =
  let exe = Sys.argv.(1) in
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "crs-balance-stress-%d" (Unix.getpid ()))
  in
  Unix.mkdir dir 0o700;
  let sock = Filename.concat dir "front.sock" in
  let shards = Filename.concat dir "shards" in
  let err_r, err_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process exe
      [|
        exe; "balance"; "--listen"; "unix:" ^ sock; "--shards"; "1";
        "--workers"; "1"; "--max-conns"; "2"; "--socket-dir"; shards;
      |]
      Unix.stdin Unix.stdout err_w
  in
  Unix.close err_w;
  let log = Lines.of_fd err_r in
  let rec await_listening () =
    match Lines.recv_line ~timeout_s:30.0 log with
    | Some line
      when String.starts_with ~prefix:"crsched balance: listening on" line ->
      ()
    | Some _ -> await_listening ()
    | None -> fail "balancer never reported listening"
  in
  await_listening ();
  let connect path =
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX path);
    Lines.of_fd fd
  in
  let check () =
    let t0 = Crs_serve.Frontend.now_s () in
    let loris =
      List.init 2 (fun _ ->
          let c = connect sock in
          let half = {|{"proto":"crs-serve|} in
          let fd = Lines.fd c in
          ignore (Unix.write_substring fd half 0 (String.length half));
          c)
    in
    List.iteri
      (fun i c ->
        (match Lines.recv_line ~timeout_s:45.0 c with
        | Some r when status r = "evicted" -> ()
        | Some r -> fail "slow-loris %d answered %s" i r
        | None -> fail "slow-loris %d was never evicted" i);
        match Lines.recv_line ~timeout_s:5.0 c with
        | None -> Lines.close c
        | Some r -> fail "slow-loris %d still open after eviction: %s" i r)
      loris;
    let waited = Crs_serve.Frontend.now_s () -. t0 in
    let c = connect sock in
    let solved =
      Lines.rpc c (request "solve" [ ("instance", J.str "1/2 1/2\n1/2") ])
    in
    if status solved <> "ok" then fail "third client answered %s" solved;
    let stats = Lines.rpc c (request "stats" []) in
    (match member [ "balancer"; "connections"; "evicted" ] stats with
    | Some (J.Int 2) -> ()
    | _ -> fail "balancer.connections.evicted is not 2");
    ignore (Lines.rpc c (request "shutdown" []));
    Lines.close c;
    (match Unix.waitpid [] pid with
    | _, Unix.WEXITED 0 -> ()
    | _ -> fail "balancer did not exit cleanly after shutdown");
    waited
  in
  let cleanup () =
    Lines.close log;
    let rec remove path =
      try
        if Sys.is_directory path then begin
          Array.iter
            (fun e -> remove (Filename.concat path e))
            (Sys.readdir path);
          Sys.rmdir path
        end
        else Sys.remove path
      with Sys_error _ -> ()
    in
    remove dir
  in
  match check () with
  | waited ->
    cleanup ();
    Printf.printf
      "balance stress passed: 2 slow-loris connections evicted after %.1fs, \
       third client served\n"
      waited
  | exception e ->
    (* Leave no process behind: kill the front (so it cannot respawn its
       shard), then drain the shard through its own socket. *)
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
    (try
       let c = connect (Crs_serve.Balancer.shard_socket ~socket_dir:shards 0) in
       Lines.send_line c (request "shutdown" []);
       ignore (Lines.recv_line ~timeout_s:5.0 c);
       Lines.close c
     with Unix.Unix_error _ -> ());
    cleanup ();
    raise e
