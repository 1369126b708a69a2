(* Tests for the work-stealing executor substrate (crs_exec): the
   Chase–Lev deque's owner/thief semantics, the executor's determinism
   and containment contracts, nested submission, and the saturation
   stats the serve layer reports. *)

module Deque = Crs_exec.Deque
module Exec = Crs_exec.Exec

(* ---- deque (single-domain semantics) ---- *)

let test_deque_lifo_fifo () =
  let d = Deque.create () in
  Alcotest.(check (option int)) "pop on empty" None (Deque.pop d);
  Alcotest.(check (option int)) "steal on empty" None (Deque.steal d);
  for i = 1 to 5 do
    Deque.push d i
  done;
  Alcotest.(check int) "size" 5 (Deque.size d);
  (* Owner pops newest first... *)
  Alcotest.(check (option int)) "pop is LIFO" (Some 5) (Deque.pop d);
  (* ...thieves take oldest first. *)
  Alcotest.(check (option int)) "steal is FIFO" (Some 1) (Deque.steal d);
  Alcotest.(check (option int)) "steal again" (Some 2) (Deque.steal d);
  Alcotest.(check (option int)) "pop meets steals" (Some 4) (Deque.pop d);
  Alcotest.(check (option int)) "last element" (Some 3) (Deque.pop d);
  Alcotest.(check (option int)) "drained" None (Deque.pop d);
  Alcotest.(check int) "size 0" 0 (Deque.size d)

let test_deque_growth () =
  (* Push far past the initial capacity: growth must preserve order and
     lose nothing. *)
  let d = Deque.create () in
  let n = 1000 in
  for i = 0 to n - 1 do
    Deque.push d i
  done;
  for i = 0 to n - 1 do
    Alcotest.(check (option int))
      (Printf.sprintf "steal %d in push order" i)
      (Some i) (Deque.steal d)
  done

let test_deque_concurrent_thieves () =
  (* One owner pushing and popping, two thief domains stealing: every
     value is received exactly once across the three parties. *)
  let d = Deque.create () in
  let n = 20_000 in
  let stolen1 = ref [] and stolen2 = ref [] in
  let stop = Atomic.make false in
  let thief acc =
    Domain.spawn (fun () ->
        let continue = ref true in
        while !continue do
          match Deque.steal d with
          | Some v -> acc := v :: !acc
          | None -> if Atomic.get stop then continue := false else Domain.cpu_relax ()
        done)
  in
  let t1 = thief stolen1 and t2 = thief stolen2 in
  let popped = ref [] in
  for i = 0 to n - 1 do
    Deque.push d i;
    if i land 3 = 0 then
      match Deque.pop d with Some v -> popped := v :: !popped | None -> ()
  done;
  let rec drain () =
    match Deque.pop d with
    | Some v ->
      popped := v :: !popped;
      drain ()
    | None -> if Deque.size d > 0 then drain ()
  in
  drain ();
  Atomic.set stop true;
  Domain.join t1;
  Domain.join t2;
  let all = List.concat [ !stolen1; !stolen2; !popped ] in
  Alcotest.(check int) "every push received exactly once" n (List.length all);
  let sorted = List.sort compare all in
  List.iteri
    (fun i v -> if i <> v then Alcotest.failf "value %d missing or duplicated (saw %d)" i v)
    sorted

(* ---- executor ---- *)

let test_exec_map_order_preserved () =
  List.iter
    (fun n ->
      let input = Array.init n (fun i -> i) in
      let out = Exec.map ~domains:3 (fun i -> (2 * i) + 1) input in
      Alcotest.(check int) "all results" n (Array.length out);
      Array.iteri
        (fun i r -> Alcotest.(check int) "order preserved" ((2 * i) + 1) r)
        out)
    [ 500; 0 ]

let test_exec_map_deterministic_across_domains () =
  (* Variable-cost work so stealing actually redistributes: results must
     still be byte-identical to the sequential map at every size. *)
  let st = Random.State.make [| 2024 |] in
  let costs = Array.init 200 (fun _ -> Random.State.int st 2000) in
  let f c =
    let acc = ref 0 in
    for i = 1 to c do
      acc := (!acc * 31) + i
    done;
    !acc
  in
  let expect = Array.map f costs in
  List.iter
    (fun domains ->
      Alcotest.(check bool)
        (Printf.sprintf "map at %d domains equals sequential" domains)
        true
        (Exec.map ~domains f costs = expect))
    [ 1; 2; 3; 8 ]

let test_exec_reuse_and_containment () =
  Exec.with_exec ~domains:2 (fun t ->
      let b = Exec.Batch.create t in
      let counter = Atomic.make 0 in
      for _ = 1 to 50 do
        Exec.Batch.submit b (fun () -> Atomic.incr counter)
      done;
      Alcotest.(check bool) "no failure" true (Exec.Batch.await b = None);
      Alcotest.(check int) "all tasks ran" 50 (Atomic.get counter);
      (* A raising task is contained: reported once, others still run,
         and the handle stays usable for the next round. *)
      for i = 1 to 20 do
        Exec.Batch.submit b (fun () ->
            if i = 7 then failwith "poisoned" else Atomic.incr counter)
      done;
      (match Exec.Batch.await b with
      | Some (Failure msg) -> Alcotest.(check string) "failure surfaced" "poisoned" msg
      | _ -> Alcotest.fail "expected the task failure to surface");
      Alcotest.(check int) "others completed" 69 (Atomic.get counter);
      Exec.Batch.submit b (fun () -> Atomic.incr counter);
      Alcotest.(check bool) "failure cleared for next batch" true
        (Exec.Batch.await b = None);
      Alcotest.(check int) "next batch ran" 70 (Atomic.get counter))

let test_exec_nested_submission () =
  (* Tasks submitting tasks: the inner pushes go to the running worker's
     own deque and still complete before the batch's await returns. *)
  Exec.with_exec ~domains:3 (fun t ->
      let b = Exec.Batch.create t in
      let hits = Atomic.make 0 in
      for _ = 1 to 10 do
        Exec.Batch.submit b (fun () ->
            for _ = 1 to 10 do
              Exec.Batch.submit b (fun () -> Atomic.incr hits)
            done)
      done;
      Alcotest.(check bool) "no failure" true (Exec.Batch.await b = None);
      Alcotest.(check int) "all nested tasks ran" 100 (Atomic.get hits))

let test_exec_shutdown_rejects_submit () =
  let t = Exec.create ~domains:1 in
  Exec.shutdown t;
  Exec.shutdown t (* idempotent *);
  Alcotest.(check bool) "submit after shutdown rejected" true
    (try
       Exec.Batch.submit (Exec.Batch.create t) (fun () -> ());
       false
     with Invalid_argument _ -> true)

(* Batch handles let several threads multiplex one executor (the
   concurrent serve frontend's shape): each batch waits only on its own
   tasks and sees only its own first failure. *)
let test_exec_batch_isolation () =
  Exec.with_exec ~domains:2 (fun t ->
      let counter = Atomic.make 0 in
      let run_batch fail =
        let b = Exec.Batch.create t in
        for i = 1 to 25 do
          Exec.Batch.submit b (fun () ->
              if fail && i = 9 then failwith "batch1" else Atomic.incr counter)
        done;
        Exec.Batch.await b
      in
      let r1 = ref None and r2 = ref None in
      let th1 = Thread.create (fun () -> r1 := run_batch true) () in
      let th2 = Thread.create (fun () -> r2 := run_batch false) () in
      Thread.join th1;
      Thread.join th2;
      (match !r1 with
      | Some (Failure msg) ->
        Alcotest.(check string) "batch 1 sees its own failure" "batch1" msg
      | _ -> Alcotest.fail "batch 1 failure not surfaced");
      Alcotest.(check bool) "batch 2 unaffected by batch 1's failure" true
        (!r2 = None);
      Alcotest.(check int) "all non-failing tasks ran" 49 (Atomic.get counter);
      (* A batch's failure never leaks into a later batch, and the
         executor remains usable. *)
      let b = Exec.Batch.create t in
      Exec.Batch.submit b (fun () -> Atomic.incr counter);
      Alcotest.(check bool) "a fresh batch stays clean" true
        (Exec.Batch.await b = None);
      Alcotest.(check int) "post-batch task ran" 50 (Atomic.get counter))

let test_exec_stats () =
  Exec.with_exec ~domains:2 (fun t ->
      let s0 = Exec.stats t in
      Alcotest.(check int) "workers" 2 s0.Exec.workers;
      Alcotest.(check int) "two depth slots" 2 (Array.length s0.Exec.depths);
      let b = Exec.Batch.create t in
      for _ = 1 to 40 do
        Exec.Batch.submit b (fun () -> ())
      done;
      ignore (Exec.Batch.await b);
      let s = Exec.stats t in
      Alcotest.(check bool) "pushes counted" true (s.Exec.pushes >= 40);
      Alcotest.(check int) "backlog drained" 0 s.Exec.queued;
      Alcotest.(check int) "injector drained" 0 s.Exec.injected;
      Alcotest.(check int) "pending agrees" 0 (Exec.pending t);
      Alcotest.(check bool) "steal count non-negative" true (s.Exec.steals >= 0);
      Alcotest.(check bool) "park count non-negative" true (s.Exec.parks >= 0))

let test_exec_obs_counters () =
  (* With metrics enabled the executor records exec.push (and park /
     steal, which are scheduling-dependent and only checked >= 0). *)
  Crs_obs.Metrics.reset ();
  Crs_obs.Metrics.set_enabled true;
  ignore (Exec.map ~domains:2 (fun i -> i * i) (Array.init 64 Fun.id));
  Crs_obs.Metrics.set_enabled false;
  let v name = Crs_obs.Metrics.counter_value (Crs_obs.Metrics.counter name) in
  Alcotest.(check bool) "exec.push recorded" true (v "exec.push" >= 64);
  Alcotest.(check bool) "exec.steal sane" true (v "exec.steal" >= 0);
  Alcotest.(check bool) "exec.park sane" true (v "exec.park" >= 0);
  Alcotest.(check bool) "queue-depth histogram in snapshot" true
    (Helpers.contains ~needle:"exec.queue_depth.d0" (Crs_obs.Metrics.snapshot ()));
  Crs_obs.Metrics.reset ()

let test_exec_map_chunked () =
  let input = Array.init 97 (fun i -> i) in
  let out = Exec.map ~chunk:10 ~domains:3 (fun i -> i + 1) input in
  Array.iteri (fun i r -> Alcotest.(check int) "chunked order" (i + 1) r) out;
  Alcotest.(check bool) "chunk < 1 rejected" true
    (try
       ignore (Exec.map ~chunk:0 ~domains:2 Fun.id input);
       false
     with Invalid_argument _ -> true)

(* [map] re-raises the first task exception once the batch settles,
   at any pool size and chunking, and leaves nothing behind for the
   next call. *)
let test_exec_map_reraises () =
  let input = Array.init 50 Fun.id in
  List.iter
    (fun (domains, chunk) ->
      let at = Printf.sprintf "domains %d, chunk %d" domains chunk in
      Alcotest.check_raises (at ^ ": re-raised") (Failure "x") (fun () ->
          ignore
            (Exec.map ~chunk ~domains
               (fun i -> if i = 17 then failwith "x" else i)
               input));
      Alcotest.(check (array int))
        (at ^ ": next map") (Array.map succ input)
        (Exec.map ~chunk ~domains succ input))
    [ (1, 1); (1, 10); (2, 1); (2, 10); (3, 1); (3, 10) ]

let suite =
  [
    Alcotest.test_case "deque: owner LIFO, thief FIFO" `Quick test_deque_lifo_fifo;
    Alcotest.test_case "deque: growth preserves order" `Quick test_deque_growth;
    Alcotest.test_case "deque: concurrent thieves, no loss, no dupes" `Quick
      test_deque_concurrent_thieves;
    Alcotest.test_case "exec: map order preserved" `Quick
      test_exec_map_order_preserved;
    Alcotest.test_case "exec: map deterministic at domains 1/2/3/8" `Quick
      test_exec_map_deterministic_across_domains;
    Alcotest.test_case "exec: reuse + exception containment" `Quick
      test_exec_reuse_and_containment;
    Alcotest.test_case "exec: nested submission from tasks" `Quick
      test_exec_nested_submission;
    Alcotest.test_case "exec: shutdown rejects submit" `Quick
      test_exec_shutdown_rejects_submit;
    Alcotest.test_case "exec: concurrent batches isolate failures" `Quick
      test_exec_batch_isolation;
    Alcotest.test_case "exec: saturation stats" `Quick test_exec_stats;
    Alcotest.test_case "exec: crs_obs counters + histogram" `Quick
      test_exec_obs_counters;
    Alcotest.test_case "exec: chunked map" `Quick test_exec_map_chunked;
    Alcotest.test_case "exec: map re-raises a task exception" `Quick
      test_exec_map_reraises;
  ]
