(* Tests for TAS arrays, step ledgers and assignment validation. *)

open Renaming_shm

let check = Alcotest.check

let test_tas_win_once () =
  let t = Tas_array.create 4 in
  check Alcotest.bool "first wins" true (Tas_array.test_and_set t ~idx:2 ~pid:7);
  check Alcotest.bool "second loses" false (Tas_array.test_and_set t ~idx:2 ~pid:8);
  check Alcotest.(option int) "owner stays" (Some 7) (Tas_array.owner t 2)

let test_tas_counts () =
  let t = Tas_array.create 10 in
  ignore (Tas_array.test_and_set t ~idx:0 ~pid:1);
  ignore (Tas_array.test_and_set t ~idx:5 ~pid:2);
  ignore (Tas_array.test_and_set t ~idx:5 ~pid:3);
  (* A register is observed by a TAS on it: the two won ones refuse a
     fresh contender, the other eight are still free to win. *)
  let won = List.filter (fun idx -> not (Tas_array.test_and_set t ~idx ~pid:4)) (List.init 10 Fun.id) in
  check Alcotest.(list int) "set registers" [ 0; 5 ] won

let test_tas_get () =
  let t = Tas_array.create 2 in
  check Alcotest.(option int) "free" None (Tas_array.owner t 0);
  ignore (Tas_array.test_and_set t ~idx:0 ~pid:9);
  check Alcotest.(option int) "winner" (Some 9) (Tas_array.owner t 0)

let test_tas_bounds () =
  let t = Tas_array.create 3 in
  Alcotest.check_raises "negative idx" (Invalid_argument "Tas_array: index out of range")
    (fun () -> ignore (Tas_array.test_and_set t ~idx:(-1) ~pid:0));
  Alcotest.check_raises "overflow idx" (Invalid_argument "Tas_array: index out of range")
    (fun () -> ignore (Tas_array.is_set t 3))

let test_ledger () =
  let l = Step_ledger.create ~processes:3 in
  Step_ledger.record l ~pid:0;
  Step_ledger.record l ~pid:0;
  for _ = 1 to 5 do
    Step_ledger.record l ~pid:2
  done;
  check Alcotest.int "pid 0" 2 (Step_ledger.steps_of l ~pid:0);
  check Alcotest.int "pid 1" 0 (Step_ledger.steps_of l ~pid:1);
  check Alcotest.int "total" 7 (Step_ledger.total l);
  check Alcotest.int "max" 5 (Step_ledger.max_steps l)

let test_ledger_summary () =
  let l = Step_ledger.create ~processes:4 in
  List.iteri
    (fun pid steps ->
      for _ = 1 to steps do
        Step_ledger.record l ~pid
      done)
    [ 1; 2; 3; 4 ];
  let s = Step_ledger.summary l in
  check (Alcotest.float 1e-9) "mean" 2.5 (Renaming_stats.Summary.mean s)

let test_assignment_valid () =
  let a = Assignment.make ~namespace:4 [| 0; 3; -1 |] in
  check Alcotest.bool "valid" true (Assignment.is_valid a);
  check Alcotest.bool "incomplete" false (Assignment.is_complete a);
  check Alcotest.int "named" 2 (Assignment.named_count a);
  check Alcotest.(list int) "unnamed" [ 2 ] (Assignment.unnamed a)

let test_assignment_duplicate () =
  let a = Assignment.make ~namespace:4 [| 1; 1 |] in
  check Alcotest.bool "invalid" false (Assignment.is_valid a);
  check Alcotest.bool "distinct names valid" true
    (Assignment.is_valid (Assignment.make ~namespace:4 [| 1; 0 |]))

let test_assignment_out_of_range () =
  let a = Assignment.make ~namespace:2 [| 2 |] in
  check Alcotest.bool "name = namespace invalid" false (Assignment.is_valid a);
  check Alcotest.bool "last name valid" true (Assignment.is_valid (Assignment.make ~namespace:2 [| 1 |]))

(* [-1] is "no name"; every other negative value is a name, and out of
   range. *)
let test_assignment_minus_one_is_none () =
  let a = Assignment.make ~namespace:4 [| -1; -2; 0 |] in
  check Alcotest.int "named" 2 (Assignment.named_count a);
  check Alcotest.(list int) "unnamed" [ 0 ] (Assignment.unnamed a);
  check Alcotest.bool "-2 is out of range" false (Assignment.is_valid a);
  check Alcotest.bool "-1 is no name" true (Assignment.is_valid (Assignment.make ~namespace:4 [| -1; -1; 0 |]))

let qcheck_tas_single_winner =
  QCheck.Test.make ~count:200 ~name:"each register has at most one winner"
    QCheck.(pair (int_bound 100) (list_of_size (Gen.int_range 1 200) (int_bound 30)))
    (fun (size0, probes) ->
      let size = size0 + 1 in
      let t = Tas_array.create size in
      let winners = Hashtbl.create 16 in
      List.iteri
        (fun pid idx0 ->
          let idx = idx0 mod size in
          if Tas_array.test_and_set t ~idx ~pid then
            if Hashtbl.mem winners idx then raise Exit else Hashtbl.add winners idx pid)
        probes;
      Hashtbl.fold
        (fun idx pid ok -> ok && Tas_array.owner t idx = Some pid)
        winners true)

(* The first-holder table [Assignment.is_valid] used before it kept
   seen names in a flat array: the reference the flat version must
   match. *)
let valid_by_table (t : Assignment.t) =
  let seen = Hashtbl.create (Array.length t.names) in
  Array.for_all
    (fun name ->
      name = -1
      || name >= 0 && name < t.namespace
         && (not (Hashtbl.mem seen name))
         && (Hashtbl.add seen name ();
             true))
    t.names

(* Small namespaces give many duplicates; names straddle both ends of
   the namespace, and a namespace far above the process count sends
   in-range names past the flat array too.  Below 0 there are -1 (no
   name) and -2, -3 (out of range). *)
let gen_assignment =
  QCheck.Gen.(
    let* namespace = oneof [ int_range 0 24; int_range 100 5000 ] in
    let* len = int_range 0 40 in
    let name =
      frequency
        [
          (1, return (-1));
          (4, int_range (-3) (min namespace 24 + 3));
          (1, int_range (-3) (namespace + 3));
        ]
    in
    let+ names = array_repeat len name in
    Assignment.make ~namespace names)

let qcheck_violations_match_table =
  QCheck.Test.make ~count:1000 ~name:"violations match the first-holder table"
    (QCheck.make
       ~print:(fun (a : Assignment.t) ->
         Printf.sprintf "namespace %d, names [%s]" a.namespace
           (String.concat "; "
              (Array.to_list
                 (Array.map (function -1 -> "-" | x -> string_of_int x) a.names))))
       gen_assignment)
    (fun a -> Assignment.is_valid a = valid_by_table a)

let tests =
  [
    ( "shm",
      [
        Alcotest.test_case "tas win once" `Quick test_tas_win_once;
        Alcotest.test_case "tas counts" `Quick test_tas_counts;
        Alcotest.test_case "tas get" `Quick test_tas_get;
        Alcotest.test_case "tas bounds" `Quick test_tas_bounds;
        Alcotest.test_case "ledger" `Quick test_ledger;
        Alcotest.test_case "ledger summary" `Quick test_ledger_summary;
        Alcotest.test_case "assignment valid" `Quick test_assignment_valid;
        Alcotest.test_case "assignment duplicate" `Quick test_assignment_duplicate;
        Alcotest.test_case "assignment out of range" `Quick test_assignment_out_of_range;
        Alcotest.test_case "assignment -1 is none" `Quick test_assignment_minus_one_is_none;
        QCheck_alcotest.to_alcotest qcheck_tas_single_winner;
        QCheck_alcotest.to_alcotest qcheck_violations_match_table;
      ] );
  ]
