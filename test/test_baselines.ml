(* Tests for the baseline algorithms. *)

module Uniform_probing = Renaming_baselines.Uniform_probing
module Linear_scan = Renaming_baselines.Linear_scan
module Sortnet_renaming = Renaming_baselines.Sortnet_renaming
module Report = Renaming_sched.Report
module Adversary = Renaming_sched.Adversary

let check = Alcotest.check

let test_uniform_probing_complete_loose () =
  let cfg = Uniform_probing.make_config ~n:200 ~m:400 () in
  let report = Uniform_probing.run cfg ~seed:1L in
  check Alcotest.bool "sound" true (Report.is_sound report);
  check Alcotest.int "complete" 200 (Report.named_count report)

let test_uniform_probing_complete_tight () =
  (* m = n: completeness via the deterministic sweep. *)
  let cfg = Uniform_probing.make_config ~n:100 ~m:100 () in
  let report = Uniform_probing.run cfg ~seed:2L in
  check Alcotest.int "complete" 100 (Report.named_count report)

let test_uniform_probing_fast_when_loose () =
  let cfg = Uniform_probing.make_config ~n:512 ~m:1024 () in
  let report = Uniform_probing.run cfg ~seed:3L in
  (* Success probability >= 1/2 per probe: max steps should be around
     log2 n, certainly far below n. *)
  check Alcotest.bool "fast" true (Report.max_steps report < 100)

let test_uniform_probing_validation () =
  Alcotest.check_raises "m < n" (Invalid_argument "Uniform_probing: m must be >= n") (fun () ->
      ignore (Uniform_probing.make_config ~n:10 ~m:5 ()))

let test_linear_scan_tight_complete () =
  let report = Linear_scan.run { Linear_scan.n = 64; m = 64 } in
  check Alcotest.bool "sound" true (Report.is_sound report);
  check Alcotest.int "complete" 64 (Report.named_count report)

let test_linear_scan_theta_n () =
  (* Under round robin, the last process scans past all taken names:
     max steps = n exactly. *)
  let n = 128 in
  let report = Linear_scan.run { Linear_scan.n; m = n } in
  check Alcotest.int "max steps = n" n (Report.max_steps report)

let test_linear_scan_uses_prefix () =
  (* Whatever the schedule, first-free scanning hands out exactly the
     names 0..n-1 when m = n. *)
  let report = Linear_scan.run { Linear_scan.n = 16; m = 16 } in
  let names =
    Array.to_list report.Report.assignment.Renaming_shm.Assignment.names
    |> List.filter (( <> ) (-1)) |> List.sort compare
  in
  check Alcotest.(list int) "names are 0..n-1" (List.init 16 Fun.id) names

let test_linear_scan_under_lifo () =
  let report = Linear_scan.run ~adversary:Adversary.lifo { Linear_scan.n = 32; m = 32 } in
  check Alcotest.bool "sound" true (Report.is_sound report);
  check Alcotest.int "complete" 32 (Report.named_count report)

(* The 0-1 principle's guarantee: with no crashes, the names are
   exactly [{0, ..., n-1}]. *)
let strong_renaming report ~n =
  let assignment = report.Report.assignment in
  Renaming_shm.Assignment.is_complete assignment
  && Array.for_all (fun name -> name < n) assignment.Renaming_shm.Assignment.names

let test_sortnet_kinds () =
  List.iter
    (fun (label, kind) ->
      let report = Sortnet_renaming.run ~kind ~n:12 ~width:16 ~seed:4L () in
      check Alcotest.bool ("strong renaming: " ^ label) true (strong_renaming report ~n:12))
    [
      ("bitonic", Sortnet_renaming.Bitonic);
      ("odd-even-merge", Sortnet_renaming.Odd_even_merge);
      ("odd-even-transposition", Sortnet_renaming.Odd_even_transposition);
    ]

let test_sortnet_width_rounding () =
  (* Bitonic rounds non-power-of-two widths up, and the namespace is the
     padded width. *)
  let report = Sortnet_renaming.run ~kind:Sortnet_renaming.Bitonic ~n:20 ~width:20 ~seed:1L () in
  check Alcotest.int "padded width" 32 report.Report.assignment.Renaming_shm.Assignment.namespace;
  check Alcotest.bool "strong renaming" true (strong_renaming report ~n:20)

let test_sortnet_rejects_overflow () =
  Alcotest.check_raises "n > width"
    (Invalid_argument "Sortnet_renaming.run: more processes than wires") (fun () ->
      ignore (Sortnet_renaming.run ~kind:Sortnet_renaming.Odd_even_merge ~n:20 ~width:10 ~seed:1L ()))

let qcheck_uniform_probing_sound =
  QCheck.Test.make ~count:30 ~name:"uniform probing sound for any m >= n"
    QCheck.(triple small_int (int_range 1 100) (int_bound 100))
    (fun (seed, n, extra) ->
      let cfg = Uniform_probing.make_config ~n ~m:(n + extra) () in
      let report = Uniform_probing.run cfg ~seed:(Int64.of_int seed) in
      Report.is_sound report && Report.named_count report = n)

let tests =
  [
    ( "baselines",
      [
        Alcotest.test_case "probing loose complete" `Quick test_uniform_probing_complete_loose;
        Alcotest.test_case "probing tight complete" `Quick test_uniform_probing_complete_tight;
        Alcotest.test_case "probing fast when loose" `Quick test_uniform_probing_fast_when_loose;
        Alcotest.test_case "probing validation" `Quick test_uniform_probing_validation;
        Alcotest.test_case "scan complete" `Quick test_linear_scan_tight_complete;
        Alcotest.test_case "scan Theta(n)" `Quick test_linear_scan_theta_n;
        Alcotest.test_case "scan uses prefix" `Quick test_linear_scan_uses_prefix;
        Alcotest.test_case "scan under lifo" `Quick test_linear_scan_under_lifo;
        Alcotest.test_case "sortnet kinds" `Quick test_sortnet_kinds;
        Alcotest.test_case "sortnet width rounding" `Quick test_sortnet_width_rounding;
        Alcotest.test_case "sortnet overflow" `Quick test_sortnet_rejects_overflow;
        QCheck_alcotest.to_alcotest qcheck_uniform_probing_sound;
      ] );
  ]
