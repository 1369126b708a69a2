module Exec = Crs_exec.Exec

type t = { exec : Exec.t; queue : int }

let create ~queue ~workers =
  if queue < 1 then invalid_arg "Admission.create: queue < 1";
  { exec = Exec.create ~domains:workers; queue }

let workers t = Exec.size t.exec
let queue_capacity t = t.queue
let executor t = t.exec
let depth t = Exec.pending t.exec

let map t ~f ~shed items =
  let n = Array.length items in
  let out = Array.make n None in
  (* Admission is against the executor's live backlog, not just this
     batch: work still in flight (queued or running) eats into the
     budget, so a slow batch showing up while the executor is saturated
     is shed instead of queueing unboundedly. On a quiet connection the
     backlog is 0 at batch start and this reduces to the per-batch
     rule, keeping shed counts deterministic for tests; under
     concurrent connections the budget is shared, so one connection's
     in-flight work sheds another's excess. *)
  let admitted = min n (max 0 (t.queue - Exec.pending t.exec)) in
  (* A per-batch completion handle: concurrent connection readers each
     run their own batches on the shared executor, and each must wait
     only for (and see only the failures of) its own tasks. *)
  let batch = Exec.Batch.create t.exec in
  for i = 0 to admitted - 1 do
    Exec.Batch.submit batch (fun () -> out.(i) <- Some (f items.(i)))
  done;
  (* Shed inline while the executor chews on the admitted prefix. *)
  for i = admitted to n - 1 do
    out.(i) <- Some (shed items.(i))
  done;
  (match Exec.Batch.await batch with Some exn -> raise exn | None -> ());
  Array.map
    (function Some r -> r | None -> assert false (* every slot filled *))
    out

let drain t = Exec.shutdown t.exec
