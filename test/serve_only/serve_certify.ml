(* serve-certify: a "certify":true solve through Server.handle_line, in
   a program whose only library is crs_serve. The answer must be ok and
   carry the audited witness; exits 1 otherwise. *)

module Server = Crs_serve.Server

let request =
  {|{"proto":"crs-serve/1","kind":"solve","instance":"1/2 1/3\n1/4","algorithm":"optimal","witness":true,"certify":true}|}

let contains ~needle s =
  let n = String.length needle in
  let rec at i =
    i + n <= String.length s && (String.sub s i n = needle || at (i + 1))
  in
  at 0

let () =
  let server = Server.create { Server.default_config with workers = 1 } in
  let response =
    Fun.protect
      ~finally:(fun () -> Server.drain server)
      (fun () -> Server.handle_line server request)
  in
  if
    not
      (contains ~needle:{|"status":"ok"|} response
      && contains ~needle:{|"schedule":"1/4 1/2\n0 1/3\n"|} response)
  then begin
    Printf.printf "FAIL serve-only certify answered: %s\n" response;
    exit 1
  end
