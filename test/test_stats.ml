(* Tests for summaries, histograms, fits, whp checks and the Lemma 3
   bound calculator. *)

open Renaming_stats

let check = Alcotest.check
let checkf msg expected actual = check (Alcotest.float 1e-9) msg expected actual

let test_summary_basic () =
  let s = Summary.create () in
  List.iter (Summary.add s) [ 1.; 2.; 3.; 4. ];
  check Alcotest.int "count" 4 (Summary.count s);
  checkf "mean" 2.5 (Summary.mean s);
  checkf "min" 1. (Summary.min s);
  checkf "max" 4. (Summary.max s)

let test_summary_single () =
  let s = Summary.create () in
  Summary.add s 7.;
  checkf "median of single" 7. (Summary.median s)

let test_summary_percentiles () =
  let s = Summary.create () in
  for i = 1 to 100 do
    Summary.add_int s i
  done;
  checkf "p0" 1. (Summary.percentile s 0.);
  checkf "p100" 100. (Summary.percentile s 100.);
  check (Alcotest.float 0.6) "median ~50.5" 50.5 (Summary.median s)

let test_summary_percentile_empty () =
  let s = Summary.create () in
  Alcotest.check_raises "empty percentile" (Invalid_argument "Summary.percentile: empty")
    (fun () -> ignore (Summary.percentile s 50.))

(* Recording a sample stores unboxed floats: once the sample buffer has
   grown, [add] and [add_int] allocate nothing.  Longlived records one
   per acquire. *)
let test_summary_add_allocates_nothing () =
  let s = Summary.create () in
  for i = 1 to 4096 do
    Summary.add_int s i
  done;
  check Alcotest.int "add_int allocates no minor words" 0
    (Test_service.minor_words ~calls:1000 (fun () -> Summary.add_int s 7));
  check Alcotest.int "add allocates no minor words" 0
    (Test_service.minor_words ~calls:1000 (fun () -> Summary.add s 2.5));
  check Alcotest.int "every sample recorded" 6098 (Summary.count s)

(* The shape as the experiment tables render it. *)
let rendered_shape fit =
  Scanf.sscanf (Format.asprintf "%a" Fit.pp_fit fit) "y = %f * %[^+-]" (fun _ shape ->
      String.trim shape)

let test_fit_recovers_log () =
  (* y = 3 log2 n + 1 exactly. *)
  let points =
    Array.map
      (fun n ->
        let nf = float_of_int n in
        (nf, (3. *. Fit.eval_shape Fit.Log nf) +. 1.))
      [| 16; 32; 64; 128; 256; 1024 |]
  in
  let fit = Fit.best_fit ~candidates:[ Fit.Log ] points in
  check (Alcotest.float 1e-6) "slope" 3. fit.Fit.slope;
  check (Alcotest.float 1e-6) "intercept" 1. fit.Fit.intercept;
  check (Alcotest.float 1e-9) "R^2" 1. fit.Fit.r_squared

let test_best_fit_prefers_true_shape () =
  let points =
    Array.map
      (fun n ->
        let nf = float_of_int n in
        (nf, 2. *. Fit.eval_shape Fit.Log_squared nf))
      [| 16; 64; 256; 1024; 4096; 16384 |]
  in
  let best = Fit.best_fit points in
  check Alcotest.string "shape" "log^2 n" (rendered_shape best)

let test_best_fit_linear () =
  let points = Array.map (fun n -> (float_of_int n, float_of_int n)) [| 2; 8; 32; 512; 2048 |] in
  let best = Fit.best_fit points in
  check Alcotest.string "linear" "n" (rendered_shape best)

let test_fit_constant_data () =
  let points = [| (16., 5.); (64., 5.); (1024., 5.) |] in
  let fit = Fit.best_fit ~candidates:[ Fit.Constant ] points in
  check (Alcotest.float 1e-9) "constant R^2 = 1" 1. fit.Fit.r_squared;
  check (Alcotest.float 1e-9) "constant value" 5. fit.Fit.intercept

let test_fit_too_few_points () =
  Alcotest.check_raises "one point" (Invalid_argument "Fit.best_fit: need at least two points")
    (fun () -> ignore (Fit.best_fit ~candidates:[ Fit.Log ] [| (4., 1.) |]))

let test_whp_accepts_zero_failures () =
  let v = Whp.check ~trials:100 ~bound:0.01 ~failed:(fun _ -> false) in
  check Alcotest.bool "holds" true v.Whp.holds;
  check Alcotest.int "failures" 0 v.Whp.failures

let test_whp_allows_one_stray () =
  let v = Whp.check ~trials:1000 ~bound:1e-9 ~failed:(fun i -> i = 0) in
  check Alcotest.bool "one stray tolerated" true v.Whp.holds

let test_whp_rejects_gross_violation () =
  let v = Whp.check ~trials:1000 ~bound:0.001 ~failed:(fun i -> i mod 2 = 0) in
  check Alcotest.bool "violated" false v.Whp.holds;
  check Alcotest.int "failures" 500 v.Whp.failures

let test_lemma3_bound_below_inverse_poly () =
  List.iter
    (fun n ->
      let bound = Chernoff.lemma3_failure_bound ~n ~c:4. ~ell:1. in
      check Alcotest.bool
        (Printf.sprintf "bound < 1/n at n=%d" n)
        true
        (bound < 1. /. float_of_int n))
    [ 64; 256; 1024; 65536 ]

let test_lemma3_min_c () =
  checkf "l=1" 4. (Chernoff.lemma3_min_c ~ell:1.);
  checkf "l=2" 6. (Chernoff.lemma3_min_c ~ell:2.)

let test_vec () =
  let v = Vec.create () in
  for i = 0 to 99 do
    Vec.add_last v i
  done;
  check Alcotest.(array int) "to_array" (Array.init 100 Fun.id) (Vec.to_array v)

let qcheck_summary_mean_bounds =
  QCheck.Test.make ~count:300 ~name:"mean lies within [min, max]"
    QCheck.(list_of_size (Gen.int_range 1 50) (float_range (-1000.) 1000.))
    (fun xs ->
      let s = Summary.create () in
      List.iter (Summary.add s) xs;
      Summary.mean s >= Summary.min s -. 1e-9 && Summary.mean s <= Summary.max s +. 1e-9)

let qcheck_percentile_monotone =
  QCheck.Test.make ~count:200 ~name:"percentiles are monotone in p"
    QCheck.(list_of_size (Gen.int_range 2 40) (float_range 0. 100.))
    (fun xs ->
      let s = Summary.create () in
      List.iter (Summary.add s) xs;
      Summary.percentile s 25. <= Summary.percentile s 75. +. 1e-9)

let tests =
  [
    ( "stats",
      [
        Alcotest.test_case "summary basic" `Quick test_summary_basic;
        Alcotest.test_case "summary single" `Quick test_summary_single;
        Alcotest.test_case "summary percentiles" `Quick test_summary_percentiles;
        Alcotest.test_case "summary empty percentile" `Quick test_summary_percentile_empty;
        Alcotest.test_case "summary add allocates nothing" `Quick
          test_summary_add_allocates_nothing;
        Alcotest.test_case "fit recovers log" `Quick test_fit_recovers_log;
        Alcotest.test_case "best fit log^2" `Quick test_best_fit_prefers_true_shape;
        Alcotest.test_case "best fit linear" `Quick test_best_fit_linear;
        Alcotest.test_case "fit constant data" `Quick test_fit_constant_data;
        Alcotest.test_case "fit needs points" `Quick test_fit_too_few_points;
        Alcotest.test_case "whp zero failures" `Quick test_whp_accepts_zero_failures;
        Alcotest.test_case "whp one stray" `Quick test_whp_allows_one_stray;
        Alcotest.test_case "whp gross violation" `Quick test_whp_rejects_gross_violation;
        Alcotest.test_case "lemma3 bound" `Quick test_lemma3_bound_below_inverse_poly;
        Alcotest.test_case "lemma3 min c" `Quick test_lemma3_min_c;
        Alcotest.test_case "vec" `Quick test_vec;
        QCheck_alcotest.to_alcotest qcheck_summary_mean_bounds;
        QCheck_alcotest.to_alcotest qcheck_percentile_monotone;
      ] );
  ]
