(* What a workload run reports. *)

type e2e = { name : string; unit_ : string; value : float }

type t = {
  attempted : int;
  failed : int;  (** answers that were not ok: error, timeout, lost, wrong *)
  wrong : string list;  (** correctness-check failures, one line each *)
  e2e : e2e list;
  probe_ms : float;  (** median probe slice of the run *)
  notes : string list;  (** extra human-readable lines *)
}

(* How a checked answer counts. *)
type verdict = Pass | Not_ok of string | Wrong of string

let tally verdicts =
  List.fold_left
    (fun (failed, wrong) v ->
      match v with
      | Pass -> (failed, wrong)
      | Not_ok _ -> (failed + 1, wrong)
      | Wrong msg -> (failed + 1, msg :: wrong))
    (0, []) verdicts
