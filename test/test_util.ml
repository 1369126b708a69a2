(* Tests for crs_util: priority queue, union-find, misc helpers, fuel. *)

module PQ = Crs_util.Pqueue.Make (Int)
module UF = Crs_util.Union_find

let test_pqueue_basic () =
  Alcotest.(check bool) "empty" true (PQ.is_empty PQ.empty);
  Alcotest.(check (option int)) "find_min empty" None (PQ.find_min PQ.empty);
  let h = PQ.of_list [ 5; 3; 8; 1; 9; 1 ] in
  Alcotest.(check (option int)) "min" (Some 1) (PQ.find_min h);
  Alcotest.(check (list int)) "sorted drain" [ 1; 1; 3; 5; 8; 9 ] (PQ.to_sorted_list h);
  Alcotest.(check int) "size" 6 (PQ.size h)

let test_pqueue_merge () =
  let a = PQ.of_list [ 4; 2 ] and b = PQ.of_list [ 3; 1 ] in
  Alcotest.(check (list int)) "merge drains sorted" [ 1; 2; 3; 4 ]
    (PQ.to_sorted_list (PQ.merge a b));
  Alcotest.(check (list int)) "merge with empty" [ 1; 3 ]
    (PQ.to_sorted_list (PQ.merge PQ.empty b))

let prop_pqueue_sorts =
  Helpers.qcheck_case "pqueue drains any list sorted"
    QCheck2.Gen.(list_size (int_bound 200) (int_range (-1000) 1000))
    (fun l -> PQ.to_sorted_list (PQ.of_list l) = List.sort compare l)

let prop_pqueue_pop_min =
  Helpers.qcheck_case "pop always yields the minimum"
    QCheck2.Gen.(list_size (int_range 1 50) (int_range (-100) 100))
    (fun l ->
      let h = PQ.of_list l in
      match PQ.pop h with
      | None -> false
      | Some (x, rest) ->
        x = List.fold_left min (List.hd l) l && PQ.size rest = List.length l - 1)

let test_union_find () =
  let uf = UF.create 6 in
  Alcotest.(check int) "initial count" 6 (UF.count uf);
  UF.union uf 0 1;
  UF.union uf 2 3;
  UF.union uf 1 2;
  Alcotest.(check bool) "same after chain" true (UF.same uf 0 3);
  Alcotest.(check bool) "separate" false (UF.same uf 0 4);
  Alcotest.(check int) "count after unions" 3 (UF.count uf);
  UF.union uf 0 3;
  Alcotest.(check int) "idempotent union" 3 (UF.count uf);
  let groups = UF.groups uf in
  Alcotest.(check int) "group count" 3 (Array.length groups);
  Alcotest.(check (list int)) "first group sorted" [ 0; 1; 2; 3 ] groups.(0);
  Alcotest.(check (list int)) "singleton group" [ 4 ] groups.(1)

let prop_union_find_partition =
  Helpers.qcheck_case "groups partition the universe"
    QCheck2.Gen.(list_size (int_bound 50) (pair (int_bound 19) (int_bound 19)))
    (fun edges ->
      let uf = UF.create 20 in
      List.iter (fun (a, b) -> UF.union uf a b) edges;
      let groups = UF.groups uf in
      let members = Array.to_list groups |> List.concat |> List.sort compare in
      members = List.init 20 (fun i -> i)
      && Array.length groups = UF.count uf)

let test_misc () =
  Alcotest.(check int) "array_sum_int" 10 (Crs_util.Misc.array_sum_int [| 1; 2; 3; 4 |]);
  Alcotest.(check int) "array_max_int" 4 (Crs_util.Misc.array_max_int [| 1; 4; 2 |]);
  Alcotest.(check int) "argmax first on ties" 1
    (Crs_util.Misc.array_argmax ~compare [| 1; 5; 5; 2 |]);
  Alcotest.(check int) "argmin" 0 (Crs_util.Misc.array_argmin ~compare [| 1; 5; 5; 2 |]);
  Alcotest.(check (list int)) "range" [ 0; 1; 2 ] (Crs_util.Misc.range 3);
  Alcotest.(check (list int)) "take" [ 1; 2 ] (Crs_util.Misc.take 2 [ 1; 2; 3 ]);
  Alcotest.(check (list int)) "take beyond" [ 1 ] (Crs_util.Misc.take 5 [ 1 ]);
  Alcotest.(check (list int)) "drop" [ 3 ] (Crs_util.Misc.drop 2 [ 1; 2; 3 ]);
  Alcotest.(check string) "string_repeat" "ababab" (Crs_util.Misc.string_repeat "ab" 3);
  Alcotest.(check (list string)) "split_on_string" [ "a"; "b"; "" ]
    (Crs_util.Misc.split_on_string ~sep:"--" "a--b--");
  Alcotest.(check (float 1e-9)) "float_mean" 2.0 (Crs_util.Misc.float_mean [ 1.0; 2.0; 3.0 ])

module J = Crs_util.Stable_json

let test_stable_json_encode () =
  Alcotest.(check string) "escape" "a\\\"b\\\\c\\nd\\te\\u0001"
    (J.escape "a\"b\\c\nd\te\x01");
  Alcotest.(check string) "float is %.6f" "0.333333" (J.float (1.0 /. 3.0));
  Alcotest.(check string) "obj keeps order" "{\"b\":1,\"a\":2}"
    (J.obj [ ("b", J.int 1); ("a", J.int 2) ]);
  Alcotest.(check string) "null options" "null" (J.str_opt None);
  Alcotest.(check string) "arr" "[1,true,\"x\"]"
    (J.arr [ J.int 1; J.bool true; J.str "x" ])

let test_stable_json_parse_roundtrip () =
  let src =
    J.obj
      [
        ("s", J.str "a\"b\nc");
        ("i", J.int (-42));
        ("f", J.float 1.5);
        ("b", J.bool false);
        ("n", J.str_opt None);
        ("l", J.arr [ J.int 1; J.obj [ ("k", J.str "v") ] ]);
      ]
  in
  match J.parse src with
  | Error msg -> Alcotest.failf "parse: %s" msg
  | Ok v ->
    Alcotest.(check string) "round trip" src (J.to_string v);
    (match J.member "i" v with
    | Some (J.Int -42) -> ()
    | _ -> Alcotest.fail "member i");
    (match J.member "missing" v with
    | None -> ()
    | Some _ -> Alcotest.fail "member missing should be None");
    (* Strictness: trailing garbage and malformed input are errors. *)
    Alcotest.(check bool) "trailing garbage rejected" true
      (Result.is_error (J.parse "{} x"));
    Alcotest.(check bool) "unterminated string rejected" true
      (Result.is_error (J.parse "\"abc"));
    Alcotest.(check bool) "bare comma rejected" true
      (Result.is_error (J.parse "[1,]"))

(* Negative paths: a strict line-delimited protocol depends on every
   malformed line failing loudly with a byte offset — most importantly
   trailing garbage after a complete value, which would otherwise let
   one line bleed into the next. *)
let test_stable_json_parse_negative () =
  let err src =
    match J.parse src with
    | Error msg -> msg
    | Ok _ -> Alcotest.failf "accepted %S" src
  in
  let check_msg src expected =
    let msg = err src in
    Alcotest.(check bool)
      (Printf.sprintf "%S error %S mentions %S" src msg expected)
      true
      (Helpers.contains ~needle:expected msg)
  in
  (* Trailing garbage: exact offset and the offending character. *)
  check_msg "{} x" "offset 3";
  check_msg "{} x" "'x'";
  check_msg "12ab" "offset 2";
  check_msg "12ab" "'a'";
  check_msg "truex" "offset 4";
  check_msg "[1] [2]" "offset 4";
  check_msg "\"done\"!" "offset 6";
  check_msg "null\u{00}" "offset 4";
  (* Other malformed inputs keep their offsets too. *)
  check_msg "" "offset 0";
  check_msg "{\"a\":}" "offset 5";
  check_msg "[1 2]" "offset 3";
  check_msg "\"\\q\"" "offset";
  check_msg "nul" "offset 0";
  (* Trailing whitespace is NOT garbage. *)
  Alcotest.(check bool) "trailing whitespace accepted" true
    (Result.is_ok (J.parse "{}  \n"))

(* A kernel fetches its meter once per solve, so a meter fetched before
   a nested [with_fuel] must obey the inner budget while it runs, and
   the outer budget must be back, untouched by the inner charges,
   afterwards. Every charge counts in [ticks], the one that runs dry
   included. *)
let test_fuel_meter_nested () =
  let module F = Crs_util.Fuel in
  let m = F.meter () in
  let t0 = F.ticks () in
  F.charge m;
  Alcotest.(check (option int)) "unmetered outside with_fuel" None (F.remaining ());
  F.with_fuel (Some 3) (fun () ->
      F.charge m;
      Alcotest.(check (option int)) "outer budget charged" (Some 2) (F.remaining ());
      Alcotest.check_raises "inner budget of 1 runs dry at the 2nd charge"
        F.Out_of_fuel (fun () ->
          F.with_fuel (Some 1) (fun () ->
              F.charge m;
              Alcotest.(check (option int)) "inner budget" (Some 0) (F.remaining ());
              F.charge m));
      Alcotest.(check (option int)) "outer budget restored" (Some 2) (F.remaining ());
      F.with_fuel None (fun () ->
          for _ = 1 to 10 do F.charge m done;
          Alcotest.(check (option int)) "unmetered inside" None (F.remaining ()));
      F.charge m;
      F.charge m;
      Alcotest.check_raises "outer budget runs dry at its 4th charge" F.Out_of_fuel
        (fun () -> F.charge m));
  Alcotest.(check (option int)) "unmetered again" None (F.remaining ());
  Alcotest.(check int) "every charge ticks" 17 (F.ticks () - t0)

let suite =
  [
    Alcotest.test_case "pqueue: basics" `Quick test_pqueue_basic;
    Alcotest.test_case "pqueue: merge" `Quick test_pqueue_merge;
    prop_pqueue_sorts;
    prop_pqueue_pop_min;
    Alcotest.test_case "union-find: unions and groups" `Quick test_union_find;
    prop_union_find_partition;
    Alcotest.test_case "misc helpers" `Quick test_misc;
    Alcotest.test_case "stable json: encoding" `Quick test_stable_json_encode;
    Alcotest.test_case "stable json: parse round-trip" `Quick
      test_stable_json_parse_roundtrip;
    Alcotest.test_case "stable json: negative paths carry offsets" `Quick
      test_stable_json_parse_negative;
    Alcotest.test_case "fuel: a meter obeys nested budgets" `Quick
      test_fuel_meter_nested;
  ]
