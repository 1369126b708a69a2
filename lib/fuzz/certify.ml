(* Independent schedule certifier. Deliberately does NOT call
   Execution.run or Schedule.check_feasible: the point is a second,
   structurally different derivation of the same semantics. Execution
   walks step-major (all processors per step); we walk processor-major
   (all steps per job), so an indexing or carry bug in one cannot hide
   in the other. *)

module Q = Crs_num.Rational
open Crs_core

type verdict = { completion : int array array; makespan : int }

let feasible schedule =
  let exception Bad of string in
  (* One fetch of the underlying matrix (read-only) for the whole
     sweep: per-cell [Schedule.share] calls repeat range checks the
     loop bounds already guarantee. *)
  let rows = Schedule.unsafe_rows schedule in
  let m = Schedule.m schedule in
  try
    for step = 0 to Array.length rows - 1 do
      let row = rows.(step) in
      let total = ref Q.zero in
      for proc = 0 to m - 1 do
        let s = row.(proc) in
        if Q.(s < zero) || Q.(s > one) then
          raise
            (Bad
               (Printf.sprintf "certify: share out of [0,1] at step %d, proc %d: %s"
                  step proc (Q.to_string s)));
        total := Q.add !total s
      done;
      if Q.(!total > one) then
        raise
          (Bad
             (Printf.sprintf "certify: resource overused at step %d: total %s > 1"
                step (Q.to_string !total)))
    done;
    Ok ()
  with Bad msg -> Error msg

(* Walk one processor's job sequence through the schedule. Every step
   belongs to at most one job (a job finishing mid-step wastes the rest
   of the step: the next job starts at the following step). Returns the
   1-based completion steps, or an error naming the first job the
   horizon leaves unfinished. *)
let walk_processor instance schedule i =
  let exception Stuck of int * Q.t in
  let rows = Schedule.unsafe_rows schedule in
  let horizon = Array.length rows in
  let jobs = Instance.jobs_on instance i in
  let completion = Array.make (Array.length jobs) 0 in
  let step = ref 0 in
  try
    Array.iteri
      (fun j job ->
        let r = Job.requirement job in
        let remaining = ref (Job.size job) in
        while Q.(!remaining > zero) do
          if !step >= horizon then raise (Stuck (j, !remaining));
          let share = rows.(!step).(i) in
          (* Eq. 1: a zero-requirement job runs at full speed on any
             share; otherwise speed = min(share / r, 1). *)
          let speed = if Q.is_zero r then Q.one else Q.min (Q.div share r) Q.one in
          remaining := Q.sub !remaining (Q.min speed !remaining);
          incr step;
          if Q.is_zero !remaining then completion.(j) <- !step
        done)
      jobs;
    Ok completion
  with Stuck (j, rem) ->
    Error
      (Printf.sprintf
         "certify: job (%d,%d) unfinished at horizon %d: remaining volume %s"
         (i + 1) (j + 1) horizon (Q.to_string rem))

let derive instance schedule =
  if Schedule.m schedule <> Instance.m instance then
    Error
      (Printf.sprintf "certify: schedule width %d but instance has m = %d"
         (Schedule.m schedule) (Instance.m instance))
  else
    match feasible schedule with
    | Error _ as e -> e
    | Ok () ->
      let exception Bad of string in
      (try
         let completion =
           Array.init (Instance.m instance) (fun i ->
               match walk_processor instance schedule i with
               | Ok c -> c
               | Error msg -> raise (Bad msg))
         in
         (* Job order: along a processor, completion steps must be
            strictly increasing (the paper's jobs are a fixed sequence;
            two jobs of one processor can never share a step). *)
         Array.iteri
           (fun i c ->
             Array.iteri
               (fun j step ->
                 if j > 0 && step <= c.(j - 1) then
                   raise
                     (Bad
                        (Printf.sprintf
                           "certify: job order violated on proc %d: job %d ends \
                            at step %d, job %d at step %d"
                           (i + 1) j c.(j - 1) (j + 1) step)))
               c)
           completion;
         let makespan =
           Array.fold_left
             (fun acc c -> Array.fold_left Stdlib.max acc c)
             0 completion
         in
         Ok { completion; makespan }
       with Bad msg -> Error msg)

let check instance schedule ~claimed =
  Crs_obs.Trace.with_span_l
    (fun () -> [ ("claimed", Crs_obs.Trace.Int claimed) ])
    "certify.check"
    (fun () ->
      match derive instance schedule with
      | Error _ as e -> e
      | Ok v ->
        if v.makespan <> claimed then
          Error
            (Printf.sprintf
               "certify: claimed makespan %d but witness achieves %d" claimed
               v.makespan)
        else Ok v)
