(* Seeded executor stress for the @stress alias: hundreds of
   variable-cost tasks at domains {1, 2, recommended}, asserting
   order-preserving results and exception containment at each size.
   Run with OCAMLRUNPARAM=b (the dune alias sets it) so a failure
   prints a backtrace.

   Deliberately an executable, not an alcotest suite: it is meant to be
   cheap to loop under rr/taskset/stress-ng when hunting a scheduling
   bug, and to run domains == recommended_domain_count, which the
   deterministic tier-1 suites pin instead. *)

module Exec = Crs_exec.Exec

let stress ~domains ~seed =
  let st = Random.State.make [| seed |] in
  let n = 800 in
  (* Cost spread over two orders of magnitude: the cheap tasks finish
     while the expensive ones are still running, so steals happen on
     every multi-domain run. *)
  let costs = Array.init n (fun i -> (i, 20 + Random.State.int st 8000)) in
  let work (i, c) =
    let acc = ref i in
    for k = 1 to c do
      acc := (!acc * 48271) + k
    done;
    (i, !acc)
  in
  let expect = Array.map work costs in
  let got = Exec.map ~domains work costs in
  if got <> expect then failwith (Printf.sprintf "order broken at %d domains" domains);
  (* Containment: one poisoned task among many, reported exactly once,
     executor reusable afterwards. *)
  Exec.with_exec ~domains (fun t ->
      let b = Exec.Batch.create t in
      let ran = Atomic.make 0 in
      for i = 1 to 100 do
        Exec.Batch.submit b (fun () ->
            if i = 37 then failwith "poisoned" else Atomic.incr ran)
      done;
      (match Exec.Batch.await b with
      | Some (Failure _) -> ()
      | Some e -> raise e
      | None -> failwith "poisoned task not reported");
      if Atomic.get ran <> 99 then failwith "containment lost tasks";
      Exec.Batch.submit b (fun () -> Atomic.incr ran);
      match Exec.Batch.await b with
      | None -> if Atomic.get ran <> 100 then failwith "reuse lost a task"
      | Some e -> raise e);
  Printf.printf "stress ok: %d tasks at %d domain%s (seed %d)\n%!" n domains
    (if domains = 1 then "" else "s")
    seed

let () =
  let recommended = Domain.recommended_domain_count () in
  let sizes = List.sort_uniq compare [ 1; 2; recommended ] in
  List.iter (fun domains -> stress ~domains ~seed:(1000 + domains)) sizes;
  Printf.printf "executor stress passed at domains %s (recommended %d)\n"
    (String.concat ", " (List.map string_of_int sizes))
    recommended
