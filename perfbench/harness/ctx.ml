(* Settings shared by every workload of one run. *)

type t = {
  crsched : string;  (** path of the built program *)
  dir : string;  (** this run's private directory in the work area *)
  seed : int;
  seconds : float;  (** length of the timed window *)
  corrupt_golden : bool;
      (** perturb one expected answer, to prove the checks can fail *)
}

let rng t salt = Random.State.make [| 0x5eed; t.seed; salt |]
