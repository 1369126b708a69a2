(* End-to-end tests of the crsched binary (built by dune as a test
   dependency; the test process runs in _build/default/test). *)

let exe = Filename.concat ".." (Filename.concat "bin" "crsched.exe")

let run_capture args =
  let out = Filename.temp_file "crsched" ".out" in
  let cmd = Printf.sprintf "%s %s > %s 2>&1" (Filename.quote exe) args (Filename.quote out) in
  let code = Sys.command cmd in
  let content = In_channel.with_open_text out In_channel.input_all in
  Sys.remove out;
  (code, content)

let has needle s = Helpers.contains ~needle s

let with_instance_file body f =
  let path = Filename.temp_file "instance" ".txt" in
  Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc body);
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let test_gen_and_solve () =
  let code, out = run_capture "gen -f figure1" in
  Alcotest.(check int) "gen exits 0" 0 code;
  Alcotest.(check bool) "emits figure 1" true (has "9/10" out);
  with_instance_file out (fun path ->
      let code, out = run_capture (Printf.sprintf "solve %s -a greedy-balance" path) in
      Alcotest.(check int) "solve exits 0" 0 code;
      Alcotest.(check bool) "reports makespan" true (has "makespan: 6" out))

let test_compare_exact () =
  with_instance_file "1/2 1/2\n1/2\n" (fun path ->
      let code, out = run_capture (Printf.sprintf "compare %s --exact" path) in
      Alcotest.(check int) "exits 0" 0 code;
      Alcotest.(check bool) "prints optimum" true (has "exact optimum: 2" out);
      Alcotest.(check bool) "lists algorithms" true (has "round-robin" out))

let test_reduce_decide () =
  let code, out = run_capture "reduce 1 2 3 --decide" in
  Alcotest.(check int) "exits 0" 0 code;
  Alcotest.(check bool) "YES verdict" true (has "partition: YES" out);
  let code, out = run_capture "reduce 3 3 3 3 2 --decide" in
  Alcotest.(check int) "exits 0" 0 code;
  Alcotest.(check bool) "NO verdict" true (has "partition: NO" out)

let test_bounds () =
  with_instance_file "1/2 1/2\n1/2\n" (fun path ->
      let code, out = run_capture (Printf.sprintf "bounds %s" path) in
      Alcotest.(check int) "exits 0" 0 code;
      Alcotest.(check bool) "Observation 1 row" true (has "Observation 1" out);
      Alcotest.(check bool) "bin-packing row" true (has "bin-packing relaxation" out))

let test_export_verify_roundtrip () =
  with_instance_file "1/2 1/2\n1/2\n" (fun path ->
      let sched = Filename.temp_file "sched" ".txt" in
      let svg = Filename.temp_file "sched" ".svg" in
      Fun.protect
        ~finally:(fun () -> List.iter Sys.remove [ sched; svg ])
        (fun () ->
          let code, _ =
            run_capture
              (Printf.sprintf "export %s -a optimal --schedule %s --svg %s" path sched svg)
          in
          Alcotest.(check int) "export exits 0" 0 code;
          Alcotest.(check bool) "svg written" true
            (has "<svg" (In_channel.with_open_text svg In_channel.input_all));
          let code, out = run_capture (Printf.sprintf "verify %s %s" path sched) in
          Alcotest.(check int) "verify exits 0" 0 code;
          Alcotest.(check bool) "all properties listed" true (has "non-wasting" out)))

let test_bad_inputs () =
  let code, _ = run_capture "solve /nonexistent/file.txt" in
  Alcotest.(check bool) "missing file fails" true (code <> 0);
  (* Out-of-range parameters answer one error line and exit 1, not an
     uncaught exception. *)
  List.iter
    (fun cmd ->
      let code, out = run_capture cmd in
      Alcotest.(check int) (cmd ^ " exits 1") 1 code;
      Alcotest.(check bool) (cmd ^ " says error") true (has "error: " out))
    [
      "gen -m 0"; "gen --granularity 0"; "gen -f rr-worst -n 0"; "gen -f gb-worst -m 1";
      "gen -f gb-worst -n 0"; "simulate --cores 0"; "simulate --cores=-2"; "reduce 0 1";
    ];
  with_instance_file "3/2\n" (fun path ->
      (* requirement > 1 is rejected at parse time *)
      let code, out = run_capture (Printf.sprintf "solve %s" path) in
      Alcotest.(check bool) "invalid requirement fails" true (code <> 0);
      Alcotest.(check bool) "helpful message" true (has "error" out));
  (* Sized jobs: the hypergraph bounds and Lemma 1 are defined for
     unit-size jobs only, so commands built on them refuse cleanly. *)
  with_instance_file "1/2*2 1/3\n1/4 1/2\n" (fun path ->
      List.iter
        (fun cmd ->
          let code, out = run_capture (Printf.sprintf "%s %s" cmd path) in
          Alcotest.(check int) (cmd ^ " on sized jobs exits 1") 1 code;
          Alcotest.(check bool) (cmd ^ " names the restriction") true
            (has "error: " out && has "unit-size jobs" out))
        [ "compare"; "bounds"; "graph"; "normalize" ];
      let sched = Filename.temp_file "sched" ".txt" in
      Fun.protect
        ~finally:(fun () -> Sys.remove sched)
        (fun () ->
          let code, _ =
            run_capture (Printf.sprintf "export %s --schedule %s" path sched)
          in
          Alcotest.(check int) "export on sized jobs exits 0" 0 code;
          let code, out = run_capture (Printf.sprintf "verify %s %s" path sched) in
          Alcotest.(check int) "verify on sized jobs exits 0" 0 code;
          Alcotest.(check bool) "verify notes the missing bound" true
            (has "not computed" out)))

let test_compare_json () =
  with_instance_file "1/2 1/2\n1/2\n" (fun path ->
      let code, out = run_capture (Printf.sprintf "compare %s --exact --json" path) in
      Alcotest.(check int) "exits 0" 0 code;
      Alcotest.(check bool) "campaign schema records" true
        (has "\"algorithm\":\"greedy-balance\"" out
        && has "\"baseline\":\"exact\"" out
        && has "\"outcome\":\"done\"" out);
      (* every line is a JSON object *)
      List.iter
        (fun line ->
          if String.trim line <> "" then
            Alcotest.(check bool) "json line" true
              (line.[0] = '{' && line.[String.length line - 1] = '}'))
        (String.split_on_char '\n' out))

let test_campaign () =
  let dir = Filename.temp_file "campaign" ".d" in
  Sys.remove dir;
  let code, out =
    run_capture
      (Printf.sprintf
         "campaign --seeds 1-6 -a greedy-balance -a round-robin --domains 2 --out %s"
         (Filename.quote dir))
  in
  Alcotest.(check int) "exits 0" 0 code;
  Alcotest.(check bool) "summary printed" true
    (has "items 12" out && has "payload digest" out);
  let jsonl =
    In_channel.with_open_text (Filename.concat dir "campaign.jsonl")
      In_channel.input_all
  in
  Alcotest.(check int) "12 JSONL records" 12
    (List.length
       (List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' jsonl)));
  Alcotest.(check bool) "summary JSON written" true
    (Sys.file_exists (Filename.concat dir "campaign-summary.json"));
  Alcotest.(check bool) "worst instance retained" true
    (Sys.file_exists (Filename.concat dir "campaign-worst.instance"));
  (* byte-identical payloads at a different pool size *)
  let dir1 = Filename.temp_file "campaign" ".d" in
  Sys.remove dir1;
  let code, out1 =
    run_capture
      (Printf.sprintf
         "campaign --seeds 1-6 -a greedy-balance -a round-robin --domains 1 --out %s"
         (Filename.quote dir1))
  in
  Alcotest.(check int) "sequential run exits 0" 0 code;
  let digest_of o =
    List.find_opt
      (fun l -> Helpers.contains ~needle:"payload digest" l)
      (String.split_on_char '\n' o)
  in
  Alcotest.(check bool) "payload digests match across pool sizes" true
    (digest_of out <> None && digest_of out = digest_of out1)

let test_campaign_invalid_spec () =
  (* Spec errors surface as one diagnostic line + exit 1, not a crash. *)
  let code, out = run_capture "campaign --seeds 9-2 -a greedy-balance" in
  Alcotest.(check int) "inverted range exits 1" 1 code;
  Alcotest.(check bool) "prefixed diagnostic" true (has "error: invalid campaign:" out);
  Alcotest.(check bool) "names the range" true (has "9..2" out);
  let code, out = run_capture "campaign -a no-such-algorithm" in
  Alcotest.(check int) "unknown algorithm exits 1" 1 code;
  Alcotest.(check bool) "lists valid algorithms" true
    (has "error: invalid campaign:" out && has "valid:" out);
  let code, out = run_capture "trace campaign --seeds 9-2" in
  Alcotest.(check int) "trace campaign: inverted range exits 1" 1 code;
  Alcotest.(check bool) "trace campaign: names the range" true
    (has "error: invalid campaign:" out && has "9..2" out);
  let code, out = run_capture "trace campaign -f nope" in
  Alcotest.(check int) "trace campaign: unknown family exits 1" 1 code;
  Alcotest.(check bool) "trace campaign: names the family" true
    (has "error: unknown family nope" out)

let test_fuzz_and_replay () =
  (* Same seed range twice: byte-identical reports (at any pool size). *)
  let args = "fuzz --oracle exact-agreement --seed-range 1..10 -m 2 -n 2" in
  let code, out = run_capture (args ^ " --domains 2") in
  Alcotest.(check int) "fuzz exits 0" 0 code;
  Alcotest.(check bool) "summary line" true (has "10 seeds: 10 pass" out);
  Alcotest.(check bool) "report digest" true (has "report digest" out);
  let code1, out1 = run_capture (args ^ " --domains 1") in
  Alcotest.(check int) "rerun exits 0" 0 code1;
  Alcotest.(check string) "byte-identical reports" out out1;
  let code, out = run_capture "fuzz --oracle no-such-oracle" in
  Alcotest.(check int) "unknown oracle exits 1" 1 code;
  Alcotest.(check bool) "lists valid oracles" true (has "witness-certified" out);
  let code, out = run_capture "fuzz --seed-range 5..1" in
  Alcotest.(check int) "bad range exits 1" 1 code;
  Alcotest.(check bool) "range diagnostic" true (has "bad seed range" out);
  (* A bad spec is refused before any oracle runs. *)
  List.iter
    (fun (flag, msg) ->
      let code, out = run_capture ("fuzz --seed-range 1..3 " ^ flag) in
      Alcotest.(check int) (flag ^ " exits 1") 1 code;
      Alcotest.(check bool) (flag ^ " diagnostic") true
        (has ("error: invalid fuzz spec: " ^ msg) out
        && not (has "fuzz oracle=" out)))
    [
      ("-m 0", "m must be at least 1");
      ("--granularity 0", "granularity must be at least 1");
      ("--fuel=-5", "fuel must be positive");
    ];
  (* Replay the pinned corpus (copied into _build by the test deps). *)
  let code, out = run_capture "replay ../data/corpus" in
  Alcotest.(check int) "replay exits 0" 0 code;
  Alcotest.(check bool) "replays every entry" true
    (has "0 failures" out && has "seed-uniform-1.json" out);
  let code, out = run_capture "replay /nonexistent-corpus" in
  Alcotest.(check int) "missing corpus exits 1" 1 code;
  Alcotest.(check bool) "missing corpus diagnostic" true (has "ERROR" out)

let test_simulate () =
  let code, out = run_capture "simulate --cores 4 -w streaming" in
  Alcotest.(check int) "exits 0" 0 code;
  Alcotest.(check bool) "policy table" true
    (has "fair-share" out && has "greedy-balance" out)

(* serve startup failures: distinct exit codes, messages naming the
   offending value. 3 = unparseable --listen, 4 = bind failure. *)
let test_serve_exit_codes () =
  let code, out = run_capture "serve --listen bogus-address" in
  Alcotest.(check int) "bad --listen exits 3" 3 code;
  Alcotest.(check bool) "names the bad address" true (has "bogus-address" out);
  let code, out = run_capture "serve --listen tcp:localhost:notaport" in
  Alcotest.(check int) "bad tcp port exits 3" 3 code;
  Alcotest.(check bool) "names the bad tcp address" true
    (has "tcp:localhost:notaport" out);
  (* An existing socket path is a bind conflict, never clobbered. *)
  let sock = Filename.temp_file "crsched" ".sock" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove sock with Sys_error _ -> ())
    (fun () ->
      let code, out = run_capture (Printf.sprintf "serve --listen unix:%s" sock) in
      Alcotest.(check int) "occupied socket path exits 4" 4 code;
      Alcotest.(check bool) "names the occupied path" true (has sock out);
      Alcotest.(check bool) "socket path not clobbered" true (Sys.file_exists sock))

(* The concurrent-frontend flags are validated before any socket work:
   bad values exit 1 with a message naming every parameter. *)
let test_serve_param_validation () =
  let code, out = run_capture "serve --backlog 0 --stdio" in
  Alcotest.(check int) "backlog 0 exits 1" 1 code;
  Alcotest.(check bool) "message names backlog" true (has "backlog 0" out);
  let code, out = run_capture "serve --max-conns 0 --stdio" in
  Alcotest.(check int) "max-conns 0 exits 1" 1 code;
  Alcotest.(check bool) "message names max-conns" true (has "max-conns 0" out);
  let code, out = run_capture "serve --idle-timeout=-1 --stdio" in
  Alcotest.(check int) "negative idle-timeout exits 1" 1 code;
  Alcotest.(check bool) "message names idle-timeout" true
    (has "idle-timeout -1" out);
  let code, out = run_capture "serve --max-fuel=-1 --stdio" in
  Alcotest.(check int) "negative max-fuel exits 1" 1 code;
  Alcotest.(check bool) "message names max-fuel" true (has "max-fuel -1" out);
  (* Under a ceiling the default deadline must fit under it. *)
  List.iter
    (fun (cmd, args, names) ->
      let code, out = run_capture (cmd ^ " " ^ args) in
      Alcotest.(check int) (cmd ^ " " ^ args ^ " exits 1") 1 code;
      Alcotest.(check bool) (cmd ^ ": message names both") true (has names out))
    [
      ("serve", "--max-fuel 1000 --stdio", "--fuel 5000000 exceeds --max-fuel 1000");
      ("serve", "--fuel 0 --max-fuel 1000 --stdio", "--fuel 0 (unlimited) exceeds");
      ("balance", "--max-fuel 1000", "--fuel 5000000 exceeds --max-fuel 1000");
    ]

(* `balance` forwards --max-fuel to its shards like --fuel: through a
   real one-shard tier, a solve above the ceiling comes back refused
   with the ceiling named, and one under it is solved. *)
let test_balance_forwards_max_fuel () =
  let module Lines = Crs_serve.Frontend.Lines in
  let module J = Crs_util.Stable_json in
  let dir = Filename.temp_dir "crsbal" "" in
  let sock = Filename.concat dir "front.sock" in
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process exe
      [|
        exe; "balance"; "--listen"; "unix:" ^ sock; "--socket-dir";
        Filename.concat dir "shards"; "--shards"; "1"; "--workers"; "1";
        "--max-fuel"; "5000000";
      |]
      Unix.stdin null null
  in
  Unix.close null;
  let reaped = ref false in
  Fun.protect
    ~finally:(fun () ->
      if not !reaped then begin
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid)
      end;
      ignore (Sys.command ("rm -rf " ^ Filename.quote dir)))
    (fun () ->
      let rec connect tries =
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        match Unix.connect fd (Unix.ADDR_UNIX sock) with
        | () -> fd
        | exception Unix.Unix_error _ when tries > 0 ->
          Unix.close fd;
          Unix.sleepf 0.05;
          connect (tries - 1)
      in
      let fd = connect 200 in
      let conn = Lines.of_fd fd in
      let request extra =
        J.obj
          ([
             ("proto", J.str Crs_serve.Protocol.version);
             ("kind", J.str "solve");
             ("instance", J.str "1/2 1/2\n1/2\n");
           ]
          @ extra)
      in
      let above = Lines.rpc conn (request [ ("fuel", J.int 6_000_000) ]) in
      Alcotest.(check bool) "above the ceiling: refused by the shard" true
        (has "\"status\":\"error\"" above && has "\"max_fuel\":5000000" above);
      Alcotest.(check bool) "under the ceiling: solved" true
        (has "\"status\":\"ok\"" (Lines.rpc conn (request [ ("fuel", J.int 100) ])));
      ignore
        (Lines.rpc conn
           (J.obj
              [ ("proto", J.str Crs_serve.Protocol.version); ("kind", J.str "shutdown") ]));
      Unix.close fd;
      let _, status = Unix.waitpid [] pid in
      reaped := true;
      Alcotest.(check bool) "tier drains and exits 0" true (status = Unix.WEXITED 0))

let test_serve_stdio () =
  let reqs = Filename.temp_file "serve" ".jsonl" in
  Out_channel.with_open_text reqs (fun oc ->
      Out_channel.output_string oc
        ("{\"proto\":\"crs-serve/1\",\"kind\":\"hello\"}\n"
        ^ "{\"proto\":\"crs-serve/1\",\"id\":1,\"kind\":\"solve\",\
           \"instance\":\"1/2 1/2\\n1/2\"}\n"
        ^ "{\"proto\":\"crs-serve/1\",\"kind\":\"shutdown\"}\n"));
  Fun.protect
    ~finally:(fun () -> Sys.remove reqs)
    (fun () ->
      let code, out =
        run_capture (Printf.sprintf "serve --stdio < %s" (Filename.quote reqs))
      in
      Alcotest.(check int) "stdio session exits 0" 0 code;
      Alcotest.(check bool) "speaks crs-serve/1" true (has "crs-serve/1" out);
      Alcotest.(check bool) "solve answered" true (has "\"makespan\":2" out);
      Alcotest.(check bool) "shutdown acknowledged" true
        (has "\"stopping\":true" out))

(* Each option of [cmd --help=plain] with its [absent=] default, keyed
   by its long name ("-a ALGO, --algorithm=ALGO" is [--algorithm]) or
   its only, short one. *)
let help_defaults cmd =
  let _, out = run_capture (cmd ^ " --help=plain") in
  List.filter_map
    (fun line ->
      match String.split_on_char '(' (String.trim line) with
      | names :: rest when String.starts_with ~prefix:"       -" line ->
        let name =
          String.trim (List.hd (List.rev (String.split_on_char ',' names)))
        in
        let flag =
          List.hd
            (String.split_on_char '='
               (List.hd (String.split_on_char ' ' name)))
        in
        let default =
          match rest with
          | [ d ] when String.starts_with ~prefix:"absent=" d ->
            Some (String.sub d 7 (String.length d - 8))
          | _ -> None
        in
        if List.mem flag [ "--help["; "--version" ] then None
        else Some (flag, default)
      | _ -> None)
    (String.split_on_char '\n' out)

(* `campaign` and `trace campaign` build their spec through one term:
   every flag they share has one default, apart from the seed range,
   and only `campaign` chooses a baseline. *)
let test_campaign_spec_flags () =
  let campaign = help_defaults "campaign" in
  let trace = help_defaults "trace campaign" in
  Alcotest.(check bool) "trace campaign has no --baseline" false
    (List.mem_assoc "--baseline" trace);
  let shared = List.filter (fun (flag, _) -> List.mem_assoc flag campaign) trace in
  Alcotest.(check (list string)) "shared flags"
    [ "--algorithm"; "--domains"; "--family"; "--fuel"; "--granularity"; "-m";
      "-n"; "--seeds" ]
    (List.map fst shared);
  List.iter
    (fun (flag, default) ->
      if flag <> "--seeds" then
        Alcotest.(check (option string)) (flag ^ " default")
          (List.assoc flag campaign) default)
    shared

(* docs/OPERATIONS.md's flag tables against the binary: every row's
   default must be the [absent=] value [--help=plain] prints ("off" for
   a switch or an empty default, "serve defaults" for the flags balance
   forwards to its shards), and every option needs a row. *)
let doc_flag_rows cmd =
  let doc =
    In_channel.with_open_text
      (Filename.concat ".." (Filename.concat "docs" "OPERATIONS.md"))
      In_channel.input_all
  in
  let rec section = function
    | [] -> []
    | l :: rest when l = Printf.sprintf "### `crsched %s`" cmd -> table rest
    | _ :: rest -> section rest
  and table = function
    | l :: _ when String.starts_with ~prefix:"#" l -> []
    | l :: rest -> (
      match String.split_on_char '|' l with
      | "" :: flags :: default :: _
        when String.starts_with ~prefix:"`--" (String.trim flags) ->
        let unquote s =
          String.trim s |> String.split_on_char '`' |> String.concat ""
        in
        let flag f = List.hd (String.split_on_char ' ' (String.trim f)) in
        List.map
          (fun f -> (flag f, unquote default))
          (String.split_on_char '/' (unquote flags))
        @ table rest
      | _ -> table rest)
    | [] -> []
  in
  section (String.split_on_char '\n' doc)

let test_operations_flag_tables () =
  let serve = help_defaults "serve" in
  let same doc binary =
    match (doc, binary) with
    | "off", None -> true
    | d, Some b -> (
      d = b
      ||
      match (float_of_string_opt d, float_of_string_opt b) with
      | Some x, Some y -> x = y
      | _ -> false)
    | _, None -> false
  in
  List.iter
    (fun (cmd, help) ->
      let rows = doc_flag_rows cmd in
      Alcotest.(check bool) (cmd ^ ": flag table found") true
        (List.length rows > 5);
      List.iter
        (fun (flag, documented) ->
          let documented =
            if documented <> "serve defaults" then documented
            else Option.value (List.assoc flag serve) ~default:"off"
          in
          match List.assoc_opt flag help with
          | None -> Alcotest.failf "OPERATIONS.md: %s has no %s" cmd flag
          | Some binary ->
            Alcotest.(check bool)
              (Printf.sprintf "%s %s: documented %s, binary %s" cmd flag
                 documented
                 (Option.value binary ~default:"(none)"))
              true (same documented binary))
        rows;
      List.iter
        (fun (flag, _) ->
          Alcotest.(check bool)
            (Printf.sprintf "OPERATIONS.md documents %s %s" cmd flag)
            true (List.mem_assoc flag rows))
        help)
    [ ("serve", serve); ("balance", help_defaults "balance") ]

(* README's solver table is the output of `crsched algorithms --long`,
   byte for byte: the run of table lines from its header row on. *)
let test_readme_solver_table () =
  let code, out = run_capture "algorithms --long" in
  Alcotest.(check int) "algorithms --long exits 0" 0 code;
  let readme =
    In_channel.with_open_text (Filename.concat ".." "README.md") In_channel.input_lines
  in
  let rec block = function
    | [] -> []
    | l :: rest when String.starts_with ~prefix:"| name | kind |" l -> l :: table rest
    | _ :: rest -> block rest
  and table = function
    | l :: rest when String.starts_with ~prefix:"|" l -> l :: table rest
    | _ -> []
  in
  Alcotest.(check string) "README table = algorithms --long" out
    (String.concat "" (List.map (fun l -> l ^ "\n") (block readme)))

(* BENCH_history.jsonl, appended by tools/bench_history.py: every line
   parses and carries the full key set, and [seq] runs 1, 2, 3... so a
   deleted or reordered line fails. *)
let test_bench_history () =
  let module J = Crs_util.Stable_json in
  let lines =
    In_channel.with_open_text
      (Filename.concat ".." "BENCH_history.jsonl")
      In_channel.input_lines
  in
  Alcotest.(check bool) "history is not empty" true (lines <> []);
  List.iteri
    (fun i line ->
      match J.parse line with
      | Error msg -> Alcotest.failf "line %d unparseable: %s" (i + 1) msg
      | Ok json ->
        List.iter
          (fun k ->
            if J.member k json = None then
              Alcotest.failf "line %d lacks %s" (i + 1) k)
          [
            "commit"; "workload"; "seed"; "seconds"; "correct"; "attempted";
            "failed"; "setup_s"; "throughput_rps"; "latency_p50_ms";
            "latency_p99_ms"; "rss_peak_mb"; "host.probe_ms"; "host.steal_pct";
          ];
        Alcotest.(check bool)
          (Printf.sprintf "line %d has seq %d" (i + 1) (i + 1))
          true
          (J.member "seq" json = Some (J.Int (i + 1))))
    lines

let suite =
  [
    Alcotest.test_case "gen | solve" `Quick test_gen_and_solve;
    Alcotest.test_case "compare --exact" `Quick test_compare_exact;
    Alcotest.test_case "compare --json (campaign schema)" `Quick test_compare_json;
    Alcotest.test_case "campaign end-to-end" `Quick test_campaign;
    Alcotest.test_case "campaign: invalid specs reported" `Quick
      test_campaign_invalid_spec;
    Alcotest.test_case "campaign | trace campaign: one spec term" `Quick
      test_campaign_spec_flags;
    Alcotest.test_case "fuzz | replay" `Quick test_fuzz_and_replay;
    Alcotest.test_case "reduce --decide" `Quick test_reduce_decide;
    Alcotest.test_case "bounds" `Quick test_bounds;
    Alcotest.test_case "export | verify roundtrip" `Quick test_export_verify_roundtrip;
    Alcotest.test_case "bad inputs fail cleanly" `Quick test_bad_inputs;
    Alcotest.test_case "simulate" `Quick test_simulate;
    Alcotest.test_case "serve: startup exit codes" `Quick test_serve_exit_codes;
    Alcotest.test_case "serve: parameter validation" `Quick
      test_serve_param_validation;
    Alcotest.test_case "serve --stdio session" `Quick test_serve_stdio;
    Alcotest.test_case "balance: --max-fuel reaches the shards" `Quick
      test_balance_forwards_max_fuel;
    Alcotest.test_case "OPERATIONS.md flag tables match --help" `Quick
      test_operations_flag_tables;
    Alcotest.test_case "README solver table matches algorithms --long" `Quick
      test_readme_solver_table;
    Alcotest.test_case "BENCH_history.jsonl: complete lines, seq from 1"
      `Quick test_bench_history;
  ]
