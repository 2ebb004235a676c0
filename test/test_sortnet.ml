(* Tests for comparator networks, their generators, and the
   renaming-via-sorting-network construction. *)

open Renaming_sortnet
module Adversary = Renaming_sched.Adversary
module Report = Renaming_sched.Report

let check = Alcotest.check

let test_network_validation () =
  Alcotest.check_raises "bad comparator" (Invalid_argument "Network.create: bad comparator")
    (fun () -> ignore (Network.create ~width:4 [ [| { Network.top = 2; bottom = 2 } |] ]));
  Alcotest.check_raises "wire reuse"
    (Invalid_argument "Network.create: wire used twice in one layer") (fun () ->
      ignore
        (Network.create ~width:4
           [ [| { Network.top = 0; bottom = 1 }; { Network.top = 1; bottom = 2 } |] ]))

let test_network_metrics () =
  let net =
    Network.create ~width:4
      [
        [| { Network.top = 0; bottom = 1 }; { Network.top = 2; bottom = 3 } |];
        [| { Network.top = 1; bottom = 2 } |];
      ]
  in
  check Alcotest.int "width" 4 (Network.width net);
  check Alcotest.int "depth" 2 (Network.depth net);
  check Alcotest.int "size" 3 (Network.size net)

let test_apply_single_comparator () =
  let net = Network.create ~width:2 [ [| { Network.top = 0; bottom = 1 } |] ] in
  check Alcotest.(array int) "sorts pair" [| 1; 2 |] (Network.apply net [| 2; 1 |] ~cmp:compare);
  check Alcotest.(array int) "keeps sorted pair" [| 1; 2 |]
    (Network.apply net [| 1; 2 |] ~cmp:compare)

let test_bitonic_sorts_small_widths () =
  List.iter
    (fun width ->
      let net = Bitonic.network ~width in
      check Alcotest.bool (Printf.sprintf "bitonic %d sorts" width) true (Network.sorts net))
    [ 2; 4; 8; 16 ]

let test_bitonic_depth_formula () =
  List.iter
    (fun width ->
      let net = Bitonic.network ~width in
      check Alcotest.int
        (Printf.sprintf "depth formula %d" width)
        (Bitonic.depth_formula ~width) (Network.depth net))
    [ 2; 4; 8; 16; 32; 64 ]

let test_bitonic_rejects_non_pow2 () =
  Alcotest.check_raises "width 6"
    (Invalid_argument "Bitonic.network: width must be a power of two >= 2") (fun () ->
      ignore (Bitonic.network ~width:6))

let test_next_pow2 () =
  check Alcotest.int "5 -> 8" 8 (Bitonic.next_pow2 5);
  check Alcotest.int "8 -> 8" 8 (Bitonic.next_pow2 8);
  check Alcotest.int "1 -> 1" 1 (Bitonic.next_pow2 1)

let test_odd_even_merge_sorts () =
  List.iter
    (fun width ->
      let net = Odd_even_merge.network ~width in
      check Alcotest.bool (Printf.sprintf "oem %d sorts" width) true (Network.sorts net))
    [ 2; 3; 4; 5; 6; 7; 8; 12; 16 ]

let test_odd_even_transposition_sorts () =
  List.iter
    (fun width ->
      let net = Odd_even_transposition.network ~width in
      check Alcotest.bool (Printf.sprintf "oet %d sorts" width) true (Network.sorts net);
      check Alcotest.int "depth = width" width (Network.depth net))
    [ 2; 3; 5; 8 ]

let test_zero_one_checker () =
  let rng = Renaming_rng.Xoshiro.create 5L in
  (match Zero_one.check ~rng (Bitonic.network ~width:8) with
  | Zero_one.Verified_exhaustive -> ()
  | _ -> Alcotest.fail "expected exhaustive verification");
  (match Zero_one.check ~rng (Bitonic.network ~width:64) with
  | Zero_one.Passed_samples _ -> ()
  | _ -> Alcotest.fail "expected sampled pass");
  (* A deliberately broken network must be refuted. *)
  let broken = Network.create ~width:4 [ [| { Network.top = 0; bottom = 1 } |] ] in
  match Zero_one.check ~rng broken with
  | Zero_one.Failed _ -> ()
  | _ -> Alcotest.fail "expected refutation"

let test_aks_model () =
  let d = Aks_model.depth ~width:1024 () in
  check (Alcotest.float 1.) "6100 * 10" 61000. d;
  check Alcotest.bool "crossover is astronomically far" true
    (Aks_model.crossover_vs_bitonic () > 1000)

let test_adapter_strong_renaming_full_entry () =
  (* All wires occupied: exits must be exactly 0..width-1. *)
  let net = Bitonic.network ~width:8 in
  let adapter = Renaming_adapter.prepare net in
  check Alcotest.int "aux bits = size" (Network.size net) (Renaming_adapter.aux_bits adapter);
  let report = Renaming_adapter.run adapter ~entries:(Array.init 8 Fun.id) () in
  check Alcotest.bool "sound" true (Report.is_sound report);
  check Alcotest.int "all named" 8 (Report.named_count report)

let test_adapter_strong_renaming_partial_entry () =
  (* k < width participants exit on the top k wires (0-1 principle). *)
  let net = Bitonic.network ~width:16 in
  let adapter = Renaming_adapter.prepare net in
  let entries = [| 3; 15; 7; 0; 9 |] in
  let report = Renaming_adapter.run adapter ~entries () in
  check Alcotest.bool "sound" true (Report.is_sound report);
  let names =
    Array.to_list report.Report.assignment.Renaming_shm.Assignment.names
    |> List.filter (( <> ) (-1)) |> List.sort compare
  in
  check Alcotest.(list int) "exits are the top k wires" [ 0; 1; 2; 3; 4 ] names

let test_adapter_partial_entry_all_adversaries () =
  (* The wait-free guarantee: exits stay the top-k wires under every
     schedule, not just round-robin. *)
  let entries = [| 11; 2; 5; 8 |] in
  List.iter
    (fun adversary ->
      let net = Odd_even_merge.network ~width:12 in
      let adapter = Renaming_adapter.prepare net in
      let report = Renaming_adapter.run adapter ~entries:(Array.copy entries) ~adversary () in
      check Alcotest.bool ("sound under " ^ report.Report.adversary) true (Report.is_sound report);
      let names =
        Array.to_list report.Report.assignment.Renaming_shm.Assignment.names
        |> List.filter (( <> ) (-1)) |> List.sort compare
      in
      check Alcotest.(list int)
        ("top-k exits under " ^ report.Report.adversary)
        [ 0; 1; 2; 3 ] names)
    [ Adversary.round_robin (); Adversary.lifo; Adversary.adaptive_contention ]

let test_adapter_rejects_duplicate_entries () =
  let adapter = Renaming_adapter.prepare (Bitonic.network ~width:4) in
  Alcotest.check_raises "duplicate entries"
    (Invalid_argument "Renaming_adapter.instance: duplicate entry wire") (fun () ->
      ignore (Renaming_adapter.run adapter ~entries:[| 1; 1 |] ()))

let test_sortnet_renaming_wrapper () =
  let report =
    Renaming_baselines.Sortnet_renaming.run ~kind:Renaming_baselines.Sortnet_renaming.Bitonic
      ~n:20 ~width:32 ~seed:11L ()
  in
  check Alcotest.bool "strong renaming" true (Test_baselines.strong_renaming report ~n:20)

let qcheck_adapter_strong_renaming =
  QCheck.Test.make ~count:60 ~name:"sortnet renaming yields exits 0..k-1 for random entries"
    QCheck.(pair small_int (int_range 1 16))
    (fun (seed, k) ->
      let net = Bitonic.network ~width:16 in
      let adapter = Renaming_adapter.prepare net in
      let rng = Renaming_rng.Xoshiro.create (Int64.of_int seed) in
      let entries = Array.sub (Renaming_rng.Sample.permutation rng 16) 0 k in
      let report = Renaming_adapter.run adapter ~entries () in
      let names =
        Array.to_list report.Report.assignment.Renaming_shm.Assignment.names
        |> List.filter (( <> ) (-1)) |> List.sort compare
      in
      names = List.init k Fun.id)

let tests =
  [
    ( "sortnet",
      [
        Alcotest.test_case "network validation" `Quick test_network_validation;
        Alcotest.test_case "network metrics" `Quick test_network_metrics;
        Alcotest.test_case "apply comparator" `Quick test_apply_single_comparator;
        Alcotest.test_case "bitonic sorts" `Quick test_bitonic_sorts_small_widths;
        Alcotest.test_case "bitonic depth" `Quick test_bitonic_depth_formula;
        Alcotest.test_case "bitonic pow2 only" `Quick test_bitonic_rejects_non_pow2;
        Alcotest.test_case "next_pow2" `Quick test_next_pow2;
        Alcotest.test_case "odd-even merge sorts" `Quick test_odd_even_merge_sorts;
        Alcotest.test_case "odd-even transposition" `Quick test_odd_even_transposition_sorts;
        Alcotest.test_case "zero-one checker" `Quick test_zero_one_checker;
        Alcotest.test_case "aks model" `Quick test_aks_model;
        Alcotest.test_case "adapter full entry" `Quick test_adapter_strong_renaming_full_entry;
        Alcotest.test_case "adapter partial entry" `Quick test_adapter_strong_renaming_partial_entry;
        Alcotest.test_case "adapter any adversary" `Quick test_adapter_partial_entry_all_adversaries;
        Alcotest.test_case "adapter duplicate entries" `Quick test_adapter_rejects_duplicate_entries;
        Alcotest.test_case "sortnet wrapper" `Quick test_sortnet_renaming_wrapper;
        QCheck_alcotest.to_alcotest qcheck_adapter_strong_renaming;
      ] );
  ]

(* --- appended: crash tolerance of the renaming network --- *)

let test_adapter_survivors_sound_under_crashes () =
  (* Crash two walkers mid-network: the survivors must still exit on
     distinct wires (names stay sound), even though the top-k guarantee
     now refers to the participants that finished. *)
  let net = Bitonic.network ~width:16 in
  let adapter = Renaming_adapter.prepare net in
  let entries = [| 0; 5; 9; 13; 2; 7 |] in
  let adversary =
    Adversary.with_crashes
      ~base:(Adversary.round_robin ())
      ~crash_times:[ (4, 1); (9, 3) ]
  in
  let report = Renaming_adapter.run adapter ~entries ~adversary () in
  check Alcotest.bool "sound with crashes" true (Report.is_sound report);
  check Alcotest.int "crashed" 2 (List.length report.Report.crashed);
  check Alcotest.int "survivors named" 0 (List.length (Report.surviving_unnamed report))

let crash_tests =
  [
    ( "sortnet-crash",
      [
        Alcotest.test_case "survivors sound under crashes" `Quick
          test_adapter_survivors_sound_under_crashes;
      ] );
  ]

let tests = tests @ crash_tests
