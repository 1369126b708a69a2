(* exports_check — flags exported values nothing outside their own
   module names. Run as `exports_check DIR...` (from the repo root,
   tier-1 passes lib bin bench test perfbench tools); exits 1 listing
   every unused export.

   A value is a line `val NAME ...` in a `.mli` under lib/. It is used
   when NAME appears as a word (OCaml identifier characters) in some
   `.ml`/`.mli` under the given directories whose module is not its
   own. A module is a file's basename without extension, so an
   implementation, its interface and any build copy of them count as
   one module. This is a name scan, not a type-checked one: a word in
   a comment or in another module's unrelated binding counts as a use.
   It catches the export that nothing mentions at all, which is what
   goes stale when its last caller is deleted.

   The allowlist names exports kept on purpose though nothing calls
   them by name; each entry says why. An allowlist entry that no
   longer names an export, or whose export is now used, fails too, so
   the list cannot outlive its reasons. *)

let allowlist =
  [
    ("Bounds.lemma6", "the paper's Lemma 6, kept beside the lemmas it builds on");
    ("Oracle.exact_agreement", "reached by name through Oracle.all");
    ("Oracle.witness_certified", "reached by name through Oracle.all");
    ("Oracle.approx_bounds_hold", "reached by name through Oracle.all");
    ("Oracle.requirement_monotonicity", "reached by name through Oracle.all");
    ("Policy.demand_proportional", "reached by name through Policy.all");
    ("Policy.first_come", "reached by name through Policy.all");
    ("Protocol.max_campaign_items", "the campaign size limit PROTOCOL.md names");
  ]

let read_file path = In_channel.with_open_bin path In_channel.input_all

let rec walk dir acc =
  Array.fold_left
    (fun acc entry ->
      let path = Filename.concat dir entry in
      if String.starts_with ~prefix:"." entry || entry = "_build" then acc
      else if Sys.is_directory path then walk path acc
      else if
        Filename.check_suffix entry ".ml" || Filename.check_suffix entry ".mli"
      then path :: acc
      else acc)
    acc
    (let entries = Sys.readdir dir in
     Array.sort String.compare entries;
     entries)

let module_of path =
  String.capitalize_ascii
    (Filename.remove_extension (Filename.basename path))

let is_ident_char = function
  | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '\'' -> true
  | _ -> false

let words text =
  let n = String.length text in
  let rec go i acc =
    if i >= n then List.rev acc
    else if is_ident_char text.[i] then begin
      let j = ref i in
      while !j < n && is_ident_char text.[!j] do
        incr j
      done;
      go !j (String.sub text i (!j - i) :: acc)
    end
    else go (i + 1) acc
  in
  go 0 []

(* [val NAME] at the start of a line; operators ([val ( + )]) are
   skipped. *)
let vals text =
  List.filter_map
    (fun line ->
      let line = String.trim line in
      if not (String.starts_with ~prefix:"val " line) then None
      else
        let rest = String.trim (String.sub line 4 (String.length line - 4)) in
        match words rest with
        | name :: _ when rest.[0] <> '(' -> Some name
        | _ -> None)
    (String.split_on_char '\n' text)

let () =
  let dirs = List.tl (Array.to_list Sys.argv) in
  if dirs = [] then (
    prerr_endline "usage: exports_check DIR...";
    exit 2);
  let files =
    List.concat_map (fun d -> List.rev (walk d [])) dirs
    |> List.filter (fun f -> module_of f <> "Exports_check")
  in
  (* word -> the modules that mention it *)
  let mentions = Hashtbl.create 4096 in
  let texts = List.map (fun f -> (f, read_file f)) files in
  List.iter
    (fun (f, text) ->
      let m = module_of f in
      List.iter
        (fun w ->
          let ms = Option.value (Hashtbl.find_opt mentions w) ~default:[] in
          if not (List.mem m ms) then Hashtbl.replace mentions w (m :: ms))
        (words text))
    texts;
  let exports =
    List.concat_map
      (fun (f, text) ->
        if
          Filename.check_suffix f ".mli"
          && String.starts_with ~prefix:"lib/" f
        then List.map (fun name -> (f, module_of f, name)) (vals text)
        else [])
      texts
  in
  let used m name =
    List.exists (fun m' -> m' <> m)
      (Option.value (Hashtbl.find_opt mentions name) ~default:[])
  in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  List.iter
    (fun (f, m, name) ->
      let key = m ^ "." ^ name in
      match (used m name, List.mem_assoc key allowlist) with
      | false, false ->
        fail "%s: %s is exported but named by no other module" f key
      | true, true ->
        fail "%s: %s is allowlisted but used; drop its allowlist entry" f key
      | _ -> ())
    exports;
  List.iter
    (fun (key, _) ->
      if not (List.exists (fun (_, m, name) -> m ^ "." ^ name = key) exports)
      then fail "allowlist entry %s names no export" key)
    allowlist;
  match !failures with
  | [] ->
    Printf.printf "exports-check: %d exports in %d files, all used\n"
      (List.length exports) (List.length files)
  | fs ->
    List.iter prerr_endline (List.rev fs);
    Printf.eprintf "exports-check: %d unused exports\n" (List.length fs);
    exit 1
