module Stable_json = Crs_util.Stable_json

(* A metric's name is its key in the registry's tables, so the handles
   are the bare cells. *)
type counter = int Atomic.t
type gauge = float Atomic.t
type histogram = Hist.t

let enabled_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag
let set_enabled b = Atomic.set enabled_flag b

(* Registration is rare (module init, first use); a single mutex over
   three name tables keeps it simple. Updates never touch the tables. *)
let registry_mu = Mutex.create ()
let counters : (string, counter) Hashtbl.t = Hashtbl.create 16
let gauges : (string, gauge) Hashtbl.t = Hashtbl.create 16
let histograms : (string, histogram) Hashtbl.t = Hashtbl.create 16

let register table name create =
  Mutex.lock registry_mu;
  let m =
    match Hashtbl.find_opt table name with
    | Some m -> m
    | None ->
      let m = create () in
      Hashtbl.add table name m;
      m
  in
  Mutex.unlock registry_mu;
  m

let counter name = register counters name (fun () -> Atomic.make 0)
let gauge name = register gauges name (fun () -> Atomic.make 0.0)
let histogram name = register histograms name Hist.create
let add c n = if Atomic.get enabled_flag then ignore (Atomic.fetch_and_add c n)
let incr c = add c 1
let set g v = if Atomic.get enabled_flag then Atomic.set g v
let observe h v = if Atomic.get enabled_flag then Hist.observe h v
let counter_value = Atomic.get
let gauge_value = Atomic.get

(* One snapshot section: every metric of [table], sorted by name. *)
let section table json =
  Mutex.lock registry_mu;
  let all = Hashtbl.fold (fun name m acc -> (name, json m) :: acc) table [] in
  Mutex.unlock registry_mu;
  Stable_json.obj (List.sort (fun (a, _) (b, _) -> String.compare a b) all)

let hist_json h =
  let bucket (lo, c) =
    Stable_json.obj [ ("lo", Stable_json.int lo); ("count", Stable_json.int c) ]
  in
  Stable_json.obj
    [
      ("count", Stable_json.int (Hist.count h));
      ("sum", Stable_json.int (Hist.sum h));
      ("buckets", Stable_json.arr (List.map bucket (Hist.buckets h)));
    ]

let snapshot () =
  Stable_json.obj
    [
      ("schema", Stable_json.str "crs-metrics/1");
      ("counters", section counters (fun c -> Stable_json.int (Atomic.get c)));
      ("gauges", section gauges (fun g -> Stable_json.float (Atomic.get g)));
      ("histograms", section histograms hist_json);
    ]

let reset () =
  Mutex.lock registry_mu;
  Hashtbl.iter (fun _ c -> Atomic.set c 0) counters;
  Hashtbl.iter (fun _ g -> Atomic.set g 0.0) gauges;
  Hashtbl.iter (fun _ h -> Hist.reset h) histograms;
  Mutex.unlock registry_mu
