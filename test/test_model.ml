(* Tests for the core model: jobs, instances, schedules, execution
   semantics (Section 3.1) and the alternative interpretation (Eq. 2). *)

module Q = Crs_num.Rational
open Crs_core

let q = Helpers.q

let test_job_validation () =
  Alcotest.check_raises "requirement > 1"
    (Invalid_argument "Job.make: requirement outside [0,1]") (fun () ->
      ignore (Job.make ~requirement:(q "3/2") ~size:Q.one));
  Alcotest.check_raises "negative size"
    (Invalid_argument "Job.make: size must be positive") (fun () ->
      ignore (Job.make ~requirement:Q.half ~size:Q.zero));
  let j = Job.of_percent 25 in
  Alcotest.check Helpers.check_q "of_percent" (q "1/4") (Job.requirement j);
  Alcotest.check Helpers.check_q "work = r*p" (q "3/4")
    (Job.work (Job.make ~requirement:(q "1/2") ~size:(q "3/2")))

let test_instance_accessors () =
  let inst = Helpers.instance_of_strings [ [ "1/2"; "1/4" ]; [ "1" ]; [] ] in
  Alcotest.(check int) "m" 3 (Instance.m inst);
  Alcotest.(check int) "n_1" 2 (Instance.n_i inst 0);
  Alcotest.(check int) "n_3 empty" 0 (Instance.n_i inst 2);
  Alcotest.(check int) "n_max" 2 (Instance.n_max inst);
  Alcotest.(check int) "total_jobs" 3 (Instance.total_jobs inst);
  Alcotest.check Helpers.check_q "total_work" (q "7/4") (Instance.total_work inst);
  Alcotest.(check int) "|M_1|" 2 (Instance.m_j inst 1);
  Alcotest.(check int) "|M_2|" 1 (Instance.m_j inst 2);
  Alcotest.(check bool) "unit size" true (Instance.is_unit_size inst);
  Alcotest.check_raises "job out of range"
    (Invalid_argument "Instance.job: job out of range") (fun () ->
      ignore (Instance.job inst 1 1))

let test_instance_serialization () =
  let inst = Helpers.instance_of_strings [ [ "1/2"; "1/4" ]; [ "9/10" ] ] in
  let text = Instance.to_string inst in
  (match Instance.of_string text with
  | Ok inst' -> Alcotest.(check bool) "roundtrip" true (Instance.equal inst inst')
  | Error e -> Alcotest.fail e);
  (match Instance.of_string "# comment\n1/2 1/4\n\n9/10\n" with
  | Ok inst' -> Alcotest.(check bool) "comments and blanks" true (Instance.equal inst inst')
  | Error e -> Alcotest.fail e);
  (match Instance.of_string "1/2*3\n1" with
  | Ok sized ->
    Alcotest.check Helpers.check_q "sized job parses" (q "3")
      (Job.size (Instance.job sized 0 0))
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "empty input is an error" true
    (Result.is_error (Instance.of_string "# nothing\n"))

let test_instance_combinators () =
  let a = Helpers.instance_of_strings [ [ "1/2" ]; [ "1/4" ] ] in
  let b = Helpers.instance_of_strings [ [ "1/8" ]; [ "1/3"; "1/5" ] ] in
  let side = Instance.concat_processors a b in
  Alcotest.(check int) "concat m" 4 (Instance.m side);
  Alcotest.check Helpers.check_q "concat keeps rows" (q "1/3")
    (Job.requirement (Instance.job side 3 0));
  let seq = Instance.append_jobs a b in
  Alcotest.(check int) "append m" 2 (Instance.m seq);
  Alcotest.(check int) "append row length" 3 (Instance.n_i seq 1);
  Alcotest.check Helpers.check_q "append order" (q "1/3")
    (Job.requirement (Instance.job seq 1 1));
  Alcotest.check Helpers.check_q "work adds up"
    (Q.add (Instance.total_work a) (Instance.total_work b))
    (Instance.total_work seq);
  let scaled = Instance.scale_requirements Q.half a in
  Alcotest.check Helpers.check_q "scaled" (q "1/4")
    (Job.requirement (Instance.job scaled 0 0));
  Alcotest.check_raises "scale out of range"
    (Invalid_argument "Job.make: requirement outside [0,1]") (fun () ->
      ignore (Instance.scale_requirements (Q.of_int 3) a));
  let sub = Instance.sub_processors side [ 2; 0 ] in
  Alcotest.(check int) "sub m" 2 (Instance.m sub);
  Alcotest.check Helpers.check_q "sub order" (q "1/8")
    (Job.requirement (Instance.job sub 0 0));
  Alcotest.check_raises "sub out of range"
    (Invalid_argument "Instance.sub_processors: processor out of range") (fun () ->
      ignore (Instance.sub_processors a [ 5 ]));
  Alcotest.check_raises "append mismatched"
    (Invalid_argument "Instance.append_jobs: processor counts differ") (fun () ->
      ignore (Instance.append_jobs a (Instance.sub_processors a [ 0 ])))

(* Scheduling laws for the combinators: makespans compose sub-additively
   under both unions (run one after the other is always feasible). *)
let prop_combinator_makespans =
  Helpers.qcheck_case ~count:30 "GB makespan sub-additive under concat/append"
    QCheck2.Gen.(pair (int_bound 1_000_000) (int_bound 1_000_000))
    (fun (s1, s2) ->
      let a = Helpers.random_instance (Random.State.make [| s1 |]) in
      let b = Helpers.random_instance (Random.State.make [| s2 |]) in
      let gb i = Crs_algorithms.Greedy_balance.makespan i in
      let opt i = Crs_algorithms.Solver.certified_lower_bound i in
      (* gb(a++b) <= 2·OPT(a++b) <= 2·(OPT(a)+OPT(b)) <= 2·(gb(a)+gb(b))
         by Theorem 7 and sub-additivity of the optimum. *)
      (Instance.m a <> Instance.m b
      || gb (Instance.append_jobs a b) <= 2 * (gb a + gb b))
      && opt (Instance.concat_processors a b) >= max (opt a) 1)

let test_schedule_serialization () =
  let sched = Helpers.schedule_of_strings [ [ "1/2"; "1/2" ]; [ "1"; "0" ] ] in
  (match Schedule.of_string (Schedule.to_string sched) with
  | Ok s -> Alcotest.(check bool) "roundtrip" true (Schedule.equal sched s)
  | Error e -> Alcotest.fail e);
  (match Schedule.of_string "# comment\n1/2 1/2\n\n0.25 0.75\n" with
  | Ok s ->
    Alcotest.(check int) "comments skipped" 2 (Schedule.horizon s);
    Alcotest.check Helpers.check_q "decimal share" (q "3/4")
      (Schedule.share s ~step:1 ~proc:1)
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "empty is error" true
    (Result.is_error (Schedule.of_string "# nothing"));
  Alcotest.(check bool) "ragged is error" true
    (Result.is_error (Schedule.of_string "1/2\n1/2 1/2"))

(* Generated instance/schedule texts, each parsed both ways; the outcome
   is the [to_string] of the result or the error message. The texts mix
   the spellings the text layer must keep apart: tabs, CR line ends,
   comments, blank lines, sizes, decimals, parts past the machine-int
   range and malformed tokens. The digest was taken from the bigint-only
   parser and printer, so any change in a value, a byte or a message
   shows here. *)
let text_token st ~clean =
  let int n = Random.State.int st n in
  let pick a = a.(int (Array.length a)) in
  let digits n = String.init n (fun k -> Char.chr (48 + if k = 0 then 1 + int 9 else int 10)) in
  let fraction () =
    let q = 1 + int 24 in
    Printf.sprintf "%d/%d" (int (q + 1)) q
  in
  match int (if clean then 9 else 14) with
  | 0 | 1 | 2 | 3 -> fraction ()
  | 4 -> pick [| "0"; "1"; "-0"; "00"; "007/20"; "1/02"; "0/5"; "4/4"; "0.25"; ".5"; "1."; "." |]
  | 5 -> fraction () ^ "*" ^ pick [| "2"; "3/2"; "1"; "1.5"; "12345678901234567890" |]
  | 6 -> digits (1 + int 3) ^ "/" ^ digits (4 + int 18)
  | 7 ->
    let k = 8 + int 12 in
    digits k ^ "/" ^ digits (k + 1 + int 4)
  | 8 -> pick [| "2147483647/2147483648"; "2147483648/4294967296"; "999999999999999999/1000000000000000000" |]
  | 9 -> pick [| "2"; "-1"; "-0.5"; "1.2.3"; "0.333333333333333333333"; "+.5"; "-." |]
  | 10 -> fraction () ^ "*" ^ pick [| "0"; "-1"; ""; "1/0"; "x"; "*2" |]
  | 11 -> (if int 2 = 0 then "-" else "") ^ digits (16 + int 6)
  | _ ->
    pick
      [|
        "/"; "1/"; "/2"; "1//2"; "x"; "#"; "#1"; "1/0"; "0/0"; "-0/0"; "0x1F"; "0b1"; "0o7";
        "1_000"; "+1/2"; "1/+2"; "1/-2"; "-1/2"; "-1/-2"; "*"; "1/2*"; "*2"; "1*2*3"; "1/2\r";
        "\r"; "\012"; "+"; "-"; "--1"; "1e3"; "1/2/3"; "\r1/3"; "1/2\0121"; "1 /2";
        "4611686018427387903/4611686018427387904"; "9223372036854775807"; "x*1/0"; "1/0*x";
        "-1*0"; "2*-1"; "1/2 *2"; "0.5*0.5";
      |]

let text_sample st =
  let int n = Random.State.int st n in
  let pick a = a.(int (Array.length a)) in
  let clean = int 2 = 0 in
  let buf = Buffer.create 128 in
  let width = 1 + int 4 in
  for _ = 0 to int 5 do
    (match int 10 with
    | 0 -> Buffer.add_string buf (pick [| "# comment"; "  # indented"; "#"; "\t#x 1/0" |])
    | 1 -> Buffer.add_string buf (pick [| ""; "   "; "\t"; " \t "; "\012" |])
    | _ ->
      if int 4 = 0 then Buffer.add_string buf (pick [| " "; "\t"; "  " |]);
      let n = if int 4 = 0 then 1 + int 5 else width in
      for k = 1 to n do
        if k > 1 then Buffer.add_string buf (pick [| " "; " "; "  "; "\t"; " \t " |]);
        Buffer.add_string buf (text_token st ~clean)
      done;
      if int 5 = 0 then Buffer.add_string buf (pick [| " "; "\t"; " \r" |]));
    Buffer.add_string buf (pick [| "\n"; "\n"; "\r\n" |])
  done;
  if int 4 = 0 then Buffer.truncate buf (Buffer.length buf - 1);
  Buffer.contents buf

let text_outcomes_digest = "558020526e448e8beb0273cb811184dd"

let test_text_outcomes_digest () =
  let st = Random.State.make [| 1729 |] in
  let buf = Buffer.create (1 lsl 20) in
  let outcome to_string = function
    | Ok v -> "ok " ^ to_string v
    | Error msg -> "error " ^ msg
  in
  let oks = ref 0 in
  for k = 1 to 4000 do
    let text = text_sample st in
    let i = Instance.of_string text and s = Schedule.of_string text in
    if Result.is_ok i then incr oks;
    Printf.bprintf buf "%d\n%s\n%s\n" k (outcome Instance.to_string i)
      (outcome Schedule.to_string s)
  done;
  Alcotest.(check bool) (Printf.sprintf "%d of 4000 instances parse" !oks) true (!oks >= 1000);
  Alcotest.(check string) "4000 texts: instance and schedule outcomes" text_outcomes_digest
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

let test_schedule_feasibility () =
  let ok = Helpers.schedule_of_strings [ [ "1/2"; "1/2" ]; [ "1"; "0" ] ] in
  Alcotest.(check bool) "feasible" true (Result.is_ok (Schedule.check_feasible ok));
  let over = Helpers.schedule_of_strings [ [ "3/4"; "1/2" ] ] in
  (match Schedule.check_feasible over with
  | Ok () -> Alcotest.fail "overused schedule accepted"
  | Error msg ->
    (* The message must localize the violation: step, total, and the
       processor holding the largest share. *)
    Alcotest.(check bool) "overuse names step" true
      (Helpers.contains ~needle:"overused at step 0" msg);
    Alcotest.(check bool) "overuse names total" true
      (Helpers.contains ~needle:"total 5/4 > 1" msg);
    Alcotest.(check bool) "overuse names largest share" true
      (Helpers.contains ~needle:"proc 0 with 3/4" msg));
  let neg = Helpers.schedule_of_strings [ [ "-1/4"; "1/2" ] ] in
  (match Schedule.check_feasible neg with
  | Ok () -> Alcotest.fail "negative share accepted"
  | Error msg ->
    Alcotest.(check bool) "range error names step and proc" true
      (Helpers.contains ~needle:"at step 0, proc 0" msg);
    Alcotest.(check bool) "range error names value" true
      (Helpers.contains ~needle:"-1/4" msg));
  Alcotest.check Helpers.check_q "share beyond horizon" Q.zero
    (Schedule.share ok ~step:7 ~proc:0);
  Alcotest.check_raises "ragged rows" (Invalid_argument "Schedule.of_rows: ragged rows")
    (fun () -> ignore (Schedule.of_rows [| [| Q.one |]; [| Q.one; Q.zero |] |]))

let test_execution_basic () =
  (* One processor, two jobs 1/2 each: full resource finishes one job per
     step; makespan 2 (one job per step even though both fit in budget). *)
  let inst = Helpers.instance_of_strings [ [ "1/2"; "1/2" ] ] in
  let sched = Helpers.schedule_of_strings [ [ "1" ]; [ "1" ] ] in
  let trace = Execution.run_exn inst sched in
  Alcotest.(check bool) "completed" true trace.completed;
  Alcotest.(check int) "makespan 2: one job per step" 2 (Execution.makespan trace);
  (* The extra assigned resource is wasted, not passed to job 2. *)
  Alcotest.check Helpers.check_q "waste = 1" Q.one (Execution.wasted trace)

let test_execution_partial () =
  (* Job of requirement 1 fed 1/4 per step takes 4 steps. *)
  let inst = Helpers.instance_of_strings [ [ "1" ] ] in
  let sched =
    Helpers.schedule_of_strings [ [ "1/4" ]; [ "1/4" ]; [ "1/4" ]; [ "1/4" ] ]
  in
  let trace = Execution.run_exn inst sched in
  Alcotest.(check int) "makespan" 4 (Execution.makespan trace);
  Alcotest.(check int) "start step" 1 trace.start_step.(0).(0);
  Alcotest.(check int) "completion step" 4 trace.completion_step.(0).(0)

let test_execution_zero_requirement () =
  (* r = 0 jobs run at full speed with no resource. *)
  let inst = Helpers.instance_of_strings [ [ "0"; "0" ] ] in
  let sched = Helpers.schedule_of_strings [ [ "0" ]; [ "0" ] ] in
  let trace = Execution.run_exn inst sched in
  Alcotest.(check bool) "completed" true trace.completed;
  Alcotest.(check int) "one per step" 2 (Execution.makespan trace)

let test_execution_speed_cap () =
  (* Granting twice the requirement does not speed the job up (size 2). *)
  let inst =
    Instance.create [| [| Job.make ~requirement:(q "1/4") ~size:(q "2") |] |]
  in
  let sched = Helpers.schedule_of_strings [ [ "1" ]; [ "1" ] ] in
  let trace = Execution.run_exn inst sched in
  Alcotest.(check int) "2 volume units at speed cap 1" 2 (Execution.makespan trace);
  Alcotest.check Helpers.check_q "consumed r per step" (q "1/4")
    trace.steps.(0).consumed.(0)

let test_execution_too_short () =
  let inst = Helpers.instance_of_strings [ [ "1" ] ] in
  let sched = Helpers.schedule_of_strings [ [ "1/2" ] ] in
  let trace = Execution.run_exn inst sched in
  Alcotest.(check bool) "not completed" false trace.completed;
  Alcotest.(check (option int)) "no makespan" None (Execution.makespan_opt trace)

let test_execution_wrong_width () =
  let inst = Helpers.instance_of_strings [ [ "1" ]; [ "1" ] ] in
  let sched = Helpers.schedule_of_strings [ [ "1" ] ] in
  Alcotest.(check bool) "width mismatch" true (Result.is_error (Execution.run inst sched))

let test_active_jobs_and_remaining () =
  let inst = Helpers.instance_of_strings [ [ "1/2"; "1/2" ]; [ "1" ] ] in
  let sched =
    Helpers.schedule_of_strings [ [ "1/2"; "1/2" ]; [ "1/2"; "1/2" ]; [ "0"; "1" ] ]
  in
  let trace = Execution.run_exn inst sched in
  Alcotest.(check (list (pair int int))) "e_1" [ (0, 0); (1, 0) ]
    (Execution.active_jobs trace 1);
  Alcotest.(check (list (pair int int))) "e_2" [ (0, 1); (1, 0) ]
    (Execution.active_jobs trace 2);
  let n1 = Execution.jobs_remaining trace 1 in
  Alcotest.(check (array int)) "n_i(1)" [| 2; 1 |] n1;
  let n2 = Execution.jobs_remaining trace 2 in
  Alcotest.(check (array int)) "n_i(2)" [| 1; 1 |] n2

(* The two model interpretations agree: Eq. (2) completion prefix sums
   match the volume-based execution, on random instances and schedules. *)
let prop_alternative_interpretation =
  Helpers.qcheck_case ~count:60 "Eq.(2) matches execution on random schedules"
    (Helpers.gen_instance_with_schedule ()) (fun (instance, schedule) ->
      let trace = Execution.run_exn instance schedule in
      trace.completed && Result.is_ok (Execution.verify_completion_times trace))

let prop_unused_capacity_consistent =
  Helpers.qcheck_case ~count:60 "unused capacity = makespan - total work"
    (Helpers.gen_instance ()) (fun instance ->
      let sched = Crs_algorithms.Greedy_balance.schedule instance in
      let trace = Execution.run_exn instance sched in
      let unused = Execution.unused_capacity trace in
      Q.equal unused
        (Q.sub (Q.of_int (Execution.makespan trace)) (Instance.total_work instance)))

let suite =
  [
    Alcotest.test_case "job: validation and work" `Quick test_job_validation;
    Alcotest.test_case "instance: accessors" `Quick test_instance_accessors;
    Alcotest.test_case "instance: serialization" `Quick test_instance_serialization;
    Alcotest.test_case "instance: combinators" `Quick test_instance_combinators;
    prop_combinator_makespans;
    Alcotest.test_case "schedule: serialization" `Quick test_schedule_serialization;
    Alcotest.test_case "schedule: feasibility" `Quick test_schedule_feasibility;
    Alcotest.test_case "execution: one job per step" `Quick test_execution_basic;
    Alcotest.test_case "execution: partial progress" `Quick test_execution_partial;
    Alcotest.test_case "execution: zero requirements" `Quick test_execution_zero_requirement;
    Alcotest.test_case "execution: speed cap" `Quick test_execution_speed_cap;
    Alcotest.test_case "execution: unfinished schedules" `Quick test_execution_too_short;
    Alcotest.test_case "execution: width mismatch" `Quick test_execution_wrong_width;
    Alcotest.test_case "execution: active jobs / remaining counts" `Quick
      test_active_jobs_and_remaining;
    prop_alternative_interpretation;
    prop_unused_capacity_consistent;
    Alcotest.test_case "text: parse outcomes pinned to a digest" `Quick
      test_text_outcomes_digest;
  ]
