(* Tests for the adaptive (unknown-k) renaming transform. *)

module Adaptive = Renaming_core.Adaptive
module Plan = Renaming_plan.Plan
module Report = Renaming_sched.Report
module Adversary = Renaming_sched.Adversary

let check = Alcotest.check

let test_config_validation () =
  Alcotest.check_raises "k = 0" (Invalid_argument "Adaptive.make_config: k must be >= 1")
    (fun () -> ignore (Adaptive.make_config ~k:0 ()));
  Alcotest.check_raises "bad epsilon"
    (Invalid_argument "Adaptive.make_config: epsilon must be positive") (fun () ->
      ignore (Adaptive.make_config ~epsilon:0. ~k:4 ()))

(* The block layout, read from the plan's [Probe] segments (one per
   level), and the two closing sweeps. *)
let test_blocks_contiguous_and_growing () =
  let cfg = Adaptive.make_config ~k:100 () in
  let plan = Plan.adaptive ~k:cfg.Adaptive.k ~ell:cfg.Adaptive.ell ~epsilon:cfg.Adaptive.epsilon in
  let last_end = ref 0 and last_block = ref (0, 0) in
  Array.iteri
    (fun j -> function
      | Plan.Probe { base; size; count = _ } ->
        check Alcotest.int (Printf.sprintf "block %d contiguous" j) !last_end base;
        check Alcotest.bool "non-empty" true (size >= 2);
        last_end := base + size;
        last_block := (base, size)
      | Plan.Sweep _ -> ())
    plan;
  (* ⌈log₂ 100⌉ + 3 = 10 levels *)
  check Alcotest.int "one probe per level, then two sweeps" 12 (Array.length plan);
  check Alcotest.int "namespace = end of last block" !last_end (Adaptive.namespace cfg);
  match Array.sub plan 10 2 with
  | [| Plan.Sweep { base; size }; Plan.Sweep { base = 0; size = before } |] ->
    check Alcotest.(pair int int) "sweep of the last block" !last_block (base, size);
    check Alcotest.int "then of every block before it" (fst !last_block) before
  | _ -> Alcotest.fail "expected the two closing sweeps"

let test_namespace_linear_in_k () =
  (* With epsilon = 1 and doubling blocks, the provisioned namespace is
     < 17k for every k. *)
  List.iter
    (fun k ->
      let cfg = Adaptive.make_config ~k () in
      let m = Adaptive.namespace cfg in
      check Alcotest.bool (Printf.sprintf "namespace O(k) at k=%d" k) true (m <= 40 * k))
    [ 1; 2; 7; 64; 100; 1000 ]

let test_complete_and_sound () =
  List.iter
    (fun k ->
      let cfg = Adaptive.make_config ~k () in
      let report = Adaptive.run cfg ~seed:5L in
      check Alcotest.bool (Printf.sprintf "sound k=%d" k) true (Report.is_sound report);
      check Alcotest.int (Printf.sprintf "complete k=%d" k) k (Report.named_count report))
    [ 1; 2; 10; 100; 500 ]

let test_names_used_linear () =
  let k = 512 in
  let cfg = Adaptive.make_config ~k () in
  let report = Adaptive.run cfg ~seed:6L in
  let used = Adaptive.max_name_used report + 1 in
  check Alcotest.bool "names used O(k)" true (used <= 8 * k)

let test_under_adversaries () =
  let cfg = Adaptive.make_config ~k:64 () in
  List.iter
    (fun adversary ->
      let report = Adaptive.run ~adversary cfg ~seed:7L in
      check Alcotest.bool ("sound under " ^ report.Report.adversary) true (Report.is_sound report);
      check Alcotest.int ("complete under " ^ report.Report.adversary) 64
        (Report.named_count report))
    [ Adversary.lifo; Adversary.adaptive_contention; Adversary.colluding ]

let test_under_crashes () =
  let cfg = Adaptive.make_config ~k:64 () in
  let adversary =
    Adversary.with_crashes ~base:(Adversary.round_robin ())
      ~crash_times:(List.init 16 (fun i -> (i * 5, i * 2)))
  in
  let report = Adaptive.run ~adversary cfg ~seed:8L in
  check Alcotest.bool "sound" true (Report.is_sound report);
  check Alcotest.int "survivors named" 0 (List.length (Report.surviving_unnamed report))

let qcheck_adaptive_complete =
  QCheck.Test.make ~count:25 ~name:"adaptive renaming complete for random k and seed"
    QCheck.(pair small_int (int_range 1 200))
    (fun (seed, k) ->
      let cfg = Adaptive.make_config ~k () in
      let report = Adaptive.run cfg ~seed:(Int64.of_int seed) in
      Report.is_sound report && Report.named_count report = k)

let tests =
  [
    ( "adaptive",
      [
        Alcotest.test_case "config validation" `Quick test_config_validation;
        Alcotest.test_case "blocks contiguous" `Quick test_blocks_contiguous_and_growing;
        Alcotest.test_case "namespace linear" `Quick test_namespace_linear_in_k;
        Alcotest.test_case "complete and sound" `Quick test_complete_and_sound;
        Alcotest.test_case "names used linear" `Quick test_names_used_linear;
        Alcotest.test_case "under adversaries" `Quick test_under_adversaries;
        Alcotest.test_case "under crashes" `Quick test_under_crashes;
        QCheck_alcotest.to_alcotest qcheck_adaptive_complete;
      ] );
  ]
