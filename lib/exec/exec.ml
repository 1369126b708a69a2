(* Work-stealing executor: per-worker Chase–Lev deques + a small
   injector queue for external submissions + a park/wake protocol for
   idle workers.

   Hot path (a worker with local work): Deque.pop — two atomic loads
   and two atomic stores, no locks. Stealing: randomized victim sweep,
   exponential backoff (Domain.cpu_relax) between failed sweeps, then
   park on a condition variable. The injector mutex is taken once per
   external submission and once per worker batch-grab, not once per
   task execution — workers that grab from the injector take a
   proportional slice into their own deque, where the other workers can
   steal it back lock-free.

   Missed-wakeup safety: a parking worker registers itself in
   [sleepers] BEFORE re-checking for work, and a submitter makes its
   task visible through an atomic store (deque [bottom] or
   [inject_len]) BEFORE reading [sleepers]. OCaml atomics are
   sequentially consistent, so in the total order either the
   submitter's read sees the registration (>= 1) and it broadcasts
   under the park mutex — serialized against the worker's
   check-then-wait — or the read of 0 precedes the registration, which
   forces the worker's subsequent has-work re-check to see the already
   published task. Either way the worker cannot wait with a runnable
   task queued. *)

module Metrics = Crs_obs.Metrics

type t = {
  id : int;  (* distinguishes executors for the worker-context DLS key *)
  deques : (unit -> unit) Deque.t array;
  inject : (unit -> unit) Queue.t;
  inject_mutex : Mutex.t;
  inject_len : int Atomic.t;  (* mirror of Queue.length, readable lock-free *)
  pending : int Atomic.t;  (* submitted but not yet finished *)
  stopping : bool Atomic.t;
  park_mutex : Mutex.t;
  work_cond : Condition.t;  (* parked workers wait here *)
  sleepers : int Atomic.t;
  mutable workers : unit Domain.t array;
  (* Always-on saturation counters (cheap atomics, feed [stats]). *)
  s_pushes : int Atomic.t;
  s_steals : int Atomic.t;
  s_parks : int Atomic.t;
  (* crs_obs instrumentation: one atomic load each when disabled. *)
  m_push : Metrics.counter;
  m_steal : Metrics.counter;
  m_park : Metrics.counter;
  depth_hist : Metrics.histogram array;
}

type stats = {
  workers : int;
  queued : int;
  injected : int;
  depths : int array;
  pushes : int;
  steals : int;
  parks : int;
}

let next_id = Atomic.make 0

(* Which executor/worker the current domain is running for, if any.
   Lets [push] from inside a task push lock-free onto the running
   worker's own deque instead of the injector. *)
let ctx_key : (int * int) option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let size t = Array.length t.deques

let has_work t =
  Atomic.get t.inject_len > 0
  || Array.exists (fun d -> Deque.size d > 0) t.deques

(* Callers must have already published the new task through an atomic
   store (Deque.push's [bottom] store or the [inject_len] set); the
   [sleepers] read below is ordered after it, see the header comment. *)
let wake_workers t =
  if Atomic.get t.sleepers > 0 then begin
    Mutex.lock t.park_mutex;
    Condition.broadcast t.work_cond;
    Mutex.unlock t.park_mutex
  end

let note_push t wid =
  Atomic.incr t.s_pushes;
  Metrics.incr t.m_push;
  if wid >= 0 && Metrics.enabled () then
    Metrics.observe t.depth_hist.(wid) (Deque.size t.deques.(wid))

(* Enqueue a {!Batch} wrapper — the only kind of queued task: onto the
   running worker's own deque from inside one of this executor's tasks,
   else through the injector. The wrapper never raises and retires
   [pending] itself, so workers just call it. *)
let push t task =
  if Atomic.get t.stopping then
    invalid_arg "Exec.Batch.submit: executor is shut down";
  Atomic.incr t.pending;
  (match !(Domain.DLS.get ctx_key) with
  | Some (eid, wid) when eid = t.id ->
    Deque.push t.deques.(wid) task;
    note_push t wid
  | _ ->
    Mutex.lock t.inject_mutex;
    Queue.push task t.inject;
    Atomic.set t.inject_len (Queue.length t.inject);
    Mutex.unlock t.inject_mutex;
    note_push t (-1));
  wake_workers t

(* Grab a batch from the injector: take one task to run now and up to a
   1/workers share of the rest into our own deque (stealable by the
   others, who we wake). One mutex round-trip moves many tasks. *)
let grab_injected t wid =
  if Atomic.get t.inject_len = 0 then None
  else begin
    Mutex.lock t.inject_mutex;
    let len = Queue.length t.inject in
    if len = 0 then begin
      Mutex.unlock t.inject_mutex;
      None
    end
    else begin
      let first = Queue.pop t.inject in
      let extra = min (Queue.length t.inject) (len / Array.length t.deques) in
      for _ = 1 to extra do
        Deque.push t.deques.(wid) (Queue.pop t.inject)
      done;
      Atomic.set t.inject_len (Queue.length t.inject);
      Mutex.unlock t.inject_mutex;
      if Metrics.enabled () then
        Metrics.observe t.depth_hist.(wid) (Deque.size t.deques.(wid));
      if extra > 0 then wake_workers t;
      Some first
    end
  end

(* One randomized sweep over the other workers' deques. *)
let try_steal t wid rng =
  let n = Array.length t.deques in
  if n = 1 then None
  else begin
    let start = Random.State.int rng n in
    let rec go i =
      if i >= n then None
      else
        let v = (start + i) mod n in
        if v = wid then go (i + 1)
        else
          match Deque.steal t.deques.(v) with
          | Some _ as r ->
            Atomic.incr t.s_steals;
            Metrics.incr t.m_steal;
            r
          | None -> go (i + 1)
    in
    go 0
  end

let park t =
  Mutex.lock t.park_mutex;
  (* Register BEFORE the re-check: a submitter that reads sleepers = 0
     (and so skips the broadcast) is ordered before this increment, so
     its task is visible to the has_work check below. A submitter that
     reads >= 1 broadcasts under the park mutex, which it can only
     acquire before we re-check or after Condition.wait releases it —
     never between. *)
  Atomic.incr t.sleepers;
  if (not (has_work t)) && not (Atomic.get t.stopping) then begin
    Atomic.incr t.s_parks;
    Metrics.incr t.m_park;
    Condition.wait t.work_cond t.park_mutex
  end;
  Atomic.decr t.sleepers;
  Mutex.unlock t.park_mutex

let max_spin = 7 (* sweeps with 1, 2, 4, ... 64 cpu_relax pauses, then park *)

let worker t wid =
  Domain.DLS.get ctx_key := Some (t.id, wid);
  let rng = Random.State.make [| 0x9e3779b9; t.id; wid |] in
  let own = t.deques.(wid) in
  let backoff = ref 0 in
  let continue = ref true in
  while !continue do
    let next =
      match Deque.pop own with
      | Some _ as task -> task
      | None -> (
        match grab_injected t wid with
        | Some _ as task -> task
        | None -> try_steal t wid rng)
    in
    match next with
    | Some task ->
      backoff := 0;
      task ()
    | None ->
      if Atomic.get t.stopping && not (has_work t) then continue := false
      else if !backoff < max_spin then begin
        for _ = 1 to 1 lsl !backoff do
          Domain.cpu_relax ()
        done;
        incr backoff
      end
      else begin
        park t;
        backoff := 0
      end
  done;
  Domain.DLS.get ctx_key := None

let create ~domains =
  if domains < 1 then invalid_arg "Exec.create: need at least one domain";
  let id = Atomic.fetch_and_add next_id 1 in
  let t =
    {
      id;
      deques = Array.init domains (fun _ -> Deque.create ());
      inject = Queue.create ();
      inject_mutex = Mutex.create ();
      inject_len = Atomic.make 0;
      pending = Atomic.make 0;
      stopping = Atomic.make false;
      park_mutex = Mutex.create ();
      work_cond = Condition.create ();
      sleepers = Atomic.make 0;
      workers = [||];
      s_pushes = Atomic.make 0;
      s_steals = Atomic.make 0;
      s_parks = Atomic.make 0;
      m_push = Metrics.counter "exec.push";
      m_steal = Metrics.counter "exec.steal";
      m_park = Metrics.counter "exec.park";
      depth_hist =
        Array.init domains (fun k ->
            Metrics.histogram (Printf.sprintf "exec.queue_depth.d%d" k));
    }
  in
  t.workers <- Array.init domains (fun wid -> Domain.spawn (fun () -> worker t wid));
  t

let pending t = Atomic.get t.pending

(* Per-batch completion: the wrapper records the task's exception in the
   batch's failure slot — the one place a task's exception stops, so
   the wrapper never raises — retires the executor-wide [pending], and
   then settles the batch's own counter, so [pending] already excludes
   a batch's tasks when its [await] returns. *)
module Batch = struct
  type exec = t

  type t = {
    exec : exec;
    pending : int Atomic.t;
    failed : exn option Atomic.t;
    mutex : Mutex.t;
    done_cond : Condition.t;
  }

  let create exec =
    {
      exec;
      pending = Atomic.make 0;
      failed = Atomic.make None;
      mutex = Mutex.create ();
      done_cond = Condition.create ();
    }

  let submit b task =
    Atomic.incr b.pending;
    match
      push b.exec (fun () ->
          (match task () with
          | () -> ()
          | exception e ->
            ignore (Atomic.compare_and_set b.failed None (Some e)));
          Atomic.decr b.exec.pending;
          if Atomic.fetch_and_add b.pending (-1) = 1 then begin
            (* The broadcast runs under the batch mutex, so it cannot
               land between await's pending check and its wait. *)
            Mutex.lock b.mutex;
            Condition.broadcast b.done_cond;
            Mutex.unlock b.mutex
          end)
    with
    | () -> ()
    | exception e ->
      (* push refused (executor shut down): the task never ran. *)
      Atomic.decr b.pending;
      raise e

  let await b =
    Mutex.lock b.mutex;
    while Atomic.get b.pending > 0 do
      Condition.wait b.done_cond b.mutex
    done;
    Mutex.unlock b.mutex;
    Atomic.exchange b.failed None
end

(* [queued] counts tasks waiting to run (injector + deques); [pending]
   also covers the running ones. *)
let stats t =
  {
    workers = size t;
    queued =
      Atomic.get t.inject_len
      + Array.fold_left (fun acc d -> acc + Deque.size d) 0 t.deques;
    injected = Atomic.get t.inject_len;
    depths = Array.map Deque.size t.deques;
    pushes = Atomic.get t.s_pushes;
    steals = Atomic.get t.s_steals;
    parks = Atomic.get t.s_parks;
  }

let shutdown t =
  if not (Atomic.get t.stopping) then begin
    Atomic.set t.stopping true;
    (* Wake everyone unconditionally: a worker between its sleepers
       increment and its wait still holds the park mutex, so this
       broadcast cannot land in that window. *)
    Mutex.lock t.park_mutex;
    Condition.broadcast t.work_cond;
    Mutex.unlock t.park_mutex;
    Array.iter Domain.join t.workers;
    (* A submit racing the stop can pass the [stopping] check yet land
       its task after every worker observed an empty executor and
       exited. Run such stragglers here — workers are joined, so this
       thread is the sole accessor — keeping the contract that
       [pending] reaches zero and a blocked [Batch.await] returns.
       Tasks cannot spawn new tasks now: [push] raises on a stopped
       executor, and that exception stops in the task's batch like any
       other. *)
    let rec drain_inject () =
      Mutex.lock t.inject_mutex;
      let task =
        if Queue.is_empty t.inject then None else Some (Queue.pop t.inject)
      in
      Atomic.set t.inject_len (Queue.length t.inject);
      Mutex.unlock t.inject_mutex;
      match task with
      | Some task ->
        task ();
        drain_inject ()
      | None -> ()
    in
    drain_inject ();
    Array.iter
      (fun d ->
        let rec drain () =
          match Deque.pop d with
          | Some task ->
            task ();
            drain ()
          | None -> ()
        in
        drain ())
      t.deques
  end

let with_exec ~domains f =
  let t = create ~domains in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

let map ?(chunk = 1) ~domains f input =
  with_exec ~domains (fun t ->
      if chunk < 1 then invalid_arg "Exec.map: chunk must be >= 1";
      let n = Array.length input in
      let results = Array.make n None in
      let batch = Batch.create t in
      (* One task per contiguous slice: slice [lo, hi] carries its
         sequence ids as the indices themselves, and writes only its own
         slots — order-preserving under any steal schedule. *)
      let i = ref 0 in
      while !i < n do
        let lo = !i in
        let hi = Stdlib.min n (lo + chunk) - 1 in
        Batch.submit batch (fun () ->
            for k = lo to hi do
              results.(k) <- Some (f input.(k))
            done);
        i := hi + 1
      done;
      (match Batch.await batch with None -> () | Some e -> raise e);
      Array.map (function Some r -> r | None -> assert false) results)
