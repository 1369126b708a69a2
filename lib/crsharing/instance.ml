module Q = Crs_num.Rational

type t = { procs : Job.t array array }

let create rows =
  if Array.length rows = 0 then invalid_arg "Instance.create: no processors";
  { procs = Array.map Array.copy rows }

let of_requirements reqs = create (Array.map (Array.map Job.unit) reqs)

let of_percent rows =
  create
    (Array.of_list
       (List.map (fun row -> Array.of_list (List.map Job.of_percent row)) rows))

let m t = Array.length t.procs
let n_i t i = Array.length t.procs.(i)

let n_max t =
  Array.fold_left (fun acc row -> max acc (Array.length row)) 0 t.procs

let total_jobs t =
  Array.fold_left (fun acc row -> acc + Array.length row) 0 t.procs

let job t i j =
  if i < 0 || i >= m t then invalid_arg "Instance.job: processor out of range";
  if j < 0 || j >= n_i t i then invalid_arg "Instance.job: job out of range";
  t.procs.(i).(j)

let jobs_on t i = Array.copy t.procs.(i)
let rows t = Array.map Array.copy t.procs

let total_work t =
  Array.fold_left
    (fun acc row -> Array.fold_left (fun acc j -> Q.add acc (Job.work j)) acc row)
    Q.zero t.procs

let m_j t j =
  Array.fold_left (fun acc row -> if Array.length row >= j then acc + 1 else acc) 0 t.procs

let is_unit_size t =
  Array.for_all (fun row -> Array.for_all Job.is_unit_size row) t.procs

let concat_processors a b = create (Array.append a.procs b.procs)

let append_jobs a b =
  if m a <> m b then invalid_arg "Instance.append_jobs: processor counts differ";
  create (Array.map2 Array.append a.procs b.procs)

let map_jobs f t =
  create (Array.mapi (fun i row -> Array.mapi (fun j job -> f i j job) row) t.procs)

let scale_requirements factor t =
  map_jobs
    (fun _ _ job ->
      Job.make
        ~requirement:(Q.mul factor (Job.requirement job))
        ~size:(Job.size job))
    t

let sub_processors t selection =
  if selection = [] then invalid_arg "Instance.sub_processors: empty selection";
  List.iter
    (fun i ->
      if i < 0 || i >= m t then
        invalid_arg "Instance.sub_processors: processor out of range")
    selection;
  create (Array.of_list (List.map (fun i -> Array.copy t.procs.(i)) selection))

let equal a b =
  m a = m b
  && Array.for_all2 (fun ra rb -> Array.length ra = Array.length rb && Array.for_all2 Job.equal ra rb) a.procs b.procs

let pp fmt t =
  Format.fprintf fmt "@[<v>";
  Array.iteri
    (fun i row ->
      Format.fprintf fmt "p%d:" i;
      Array.iter (fun j -> Format.fprintf fmt " %a" Job.pp j) row;
      if i < m t - 1 then Format.fprintf fmt "@,")
    t.procs;
  Format.fprintf fmt "@]"

(* Sized for a paper-style job such as "7/20 " in one allocation. *)
let to_string t =
  let buf = Buffer.create (16 + (6 * total_jobs t)) in
  Array.iter
    (fun row ->
      Array.iteri
        (fun k j ->
          if k > 0 then Buffer.add_char buf ' ';
          Q.add_to_buffer buf (Job.requirement j);
          if not (Job.is_unit_size j) then begin
            Buffer.add_char buf '*';
            Q.add_to_buffer buf (Job.size j)
          end)
        row;
      Buffer.add_char buf '\n')
    t.procs;
  Buffer.contents buf

let rec star text i e = if i < e && text.[i] <> '*' then star text (i + 1) e else i

(* A job token is [r] or [r*p], split at its first '*'. The size is read
   before the requirement, so a token wrong on both sides reports the
   size's error. *)
let job_of_token text pos len =
  let e = pos + len in
  let k = star text pos e in
  if k = e then Job.unit (Q.of_substring text pos len)
  else begin
    let size = Q.of_substring text (k + 1) (e - k - 1) in
    let requirement = Q.of_substring text pos (k - pos) in
    Job.make ~requirement ~size
  end

let of_string text =
  match Text_rows.parse text job_of_token with
  | [||] -> Error "Instance.of_string: no processor lines"
  | procs -> Ok { procs }
  | exception (Invalid_argument msg | Failure msg) -> Error msg
  | exception Division_by_zero -> Error "Instance.of_string: zero denominator"

let load path =
  try
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> of_string (In_channel.input_all ic))
  with Sys_error msg -> Error msg

let save path t =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (to_string t))
