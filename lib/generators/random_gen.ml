module Q = Crs_num.Rational
open Crs_core

type spec = {
  m : int;
  jobs_min : int;
  jobs_max : int;
  granularity : int;
  allow_zero : bool;
}

let default_spec = { m = 3; jobs_min = 1; jobs_max = 5; granularity = 20; allow_zero = false }

let check spec =
  if spec.m < 1 then invalid_arg "Random_gen: m must be at least 1";
  if spec.jobs_min < 0 || spec.jobs_max < spec.jobs_min then
    invalid_arg "Random_gen: bad job count range";
  if spec.granularity < 1 then invalid_arg "Random_gen: granularity must be >= 1"

let req_of spec st =
  let lo = if spec.allow_zero then 0 else 1 in
  Q.of_ints (lo + Random.State.int st (spec.granularity + 1 - lo)) spec.granularity

let job_count spec st = spec.jobs_min + Random.State.int st (spec.jobs_max - spec.jobs_min + 1)

let instance ?(spec = default_spec) st =
  check spec;
  Instance.of_requirements
    (Array.init spec.m (fun _ -> Array.init (job_count spec st) (fun _ -> req_of spec st)))

let heavy_tailed ?(spec = default_spec) st =
  check spec;
  let g = spec.granularity in
  let heavy () = Q.of_ints (max 1 (g - Random.State.int st (max 1 (g / 5)))) g in
  let light () = Q.of_ints (1 + Random.State.int st (max 1 (g / 5))) g in
  Instance.of_requirements
    (Array.init spec.m (fun _ ->
         Array.init (job_count spec st) (fun _ ->
             if Random.State.int st 4 = 0 then heavy () else light ())))

let balanced_load ?(spec = default_spec) st =
  check spec;
  if spec.granularity < spec.m then
    invalid_arg "Random_gen.balanced_load: granularity must be >= m";
  (* Build column by column: split 1 into m random positive parts by
     choosing m-1 cut points on the granularity grid, then deal column j
     to the processors that still need a j-th job. *)
  let n = job_count spec st in
  let g = spec.granularity in
  let column () =
    let cuts =
      List.init (spec.m - 1) (fun _ -> 1 + Random.State.int st (g - 1))
      |> List.sort_uniq compare
    in
    let rec parts last = function
      | [] -> [ g - last ]
      | c :: rest -> (c - last) :: parts c rest
    in
    let raw = parts 0 cuts in
    (* sort_uniq may have merged cut points; pad with 1/g jobs borrowed
       from the largest part to restore m entries. *)
    let raw = ref raw in
    while List.length !raw < spec.m do
      let largest = List.fold_left max 0 !raw in
      let replaced = ref false in
      raw :=
        List.concat_map
          (fun p ->
            if p = largest && (not !replaced) && p > 1 then begin
              replaced := true;
              [ p - 1; 1 ]
            end
            else [ p ])
          !raw
    done;
    List.map (fun p -> Q.of_ints (max p 1) g) !raw
  in
  let cols = Array.init n (fun _ -> Array.of_list (column ())) in
  Instance.of_requirements
    (Array.init spec.m (fun i -> Array.init n (fun j -> cols.(j).(i))))

let equal_rows ~m ~n ~granularity st =
  let spec = { default_spec with m; jobs_min = n; jobs_max = n; granularity } in
  instance ~spec st

let sized_jobs ~m ~n ~granularity ~max_size st =
  if max_size < 1 then invalid_arg "Random_gen.sized_jobs: max_size must be >= 1";
  let spec = { default_spec with m; jobs_min = n; jobs_max = n; granularity } in
  check spec;
  let size () =
    Q.of_ints
      (granularity + Random.State.int st (granularity * max_size))
      granularity
  in
  Instance.create
    (Array.init m (fun _ ->
         Array.init n (fun _ ->
             Job.make ~requirement:(req_of spec st) ~size:(size ()))))
