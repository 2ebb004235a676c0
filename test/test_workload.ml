(* Tests for arrival patterns, crash patterns, and Zipf skew. *)

module Arrival = Renaming_workload.Arrival
module Crash_pattern = Renaming_workload.Crash_pattern
module Zipf = Renaming_workload.Zipf
module Xoshiro = Renaming_rng.Xoshiro

let check = Alcotest.check

let test_all_at_once () =
  check Alcotest.(array int) "zeros" [| 0; 0; 0 |] (Arrival.times Arrival.All_at_once ~n:3)

let test_staggered () =
  check Alcotest.(array int) "gaps" [| 0; 5; 10; 15 |]
    (Arrival.times (Arrival.Staggered { gap = 5 }) ~n:4)

let test_bursty () =
  let times = Arrival.times (Arrival.Bursty { bursts = 2; gap = 10 }) ~n:6 in
  check Alcotest.(array int) "two bursts" [| 0; 0; 0; 10; 10; 10 |] times

let test_bursty_uneven () =
  let times = Arrival.times (Arrival.Bursty { bursts = 3; gap = 2 }) ~n:4 in
  (* per_burst = 1; pids 0,1,2 in bursts 0,1,2, pid 3 clamped to last. *)
  check Alcotest.(array int) "clamped" [| 0; 2; 4; 4 |] times

let test_explicit () =
  let times = Arrival.times (Arrival.Explicit [| 3; 1 |]) ~n:2 in
  check Alcotest.(array int) "copied" [| 3; 1 |] times;
  Alcotest.check_raises "wrong length" (Invalid_argument "Arrival.times: wrong array length")
    (fun () -> ignore (Arrival.times (Arrival.Explicit [| 1 |]) ~n:2))

let test_crash_random_properties () =
  let rng = Renaming_rng.Xoshiro.create 9L in
  let crashes = Crash_pattern.random ~rng ~n:100 ~failures:20 ~horizon:50 in
  check Alcotest.int "count" 20 (List.length crashes);
  let pids = List.map snd crashes in
  let distinct = List.sort_uniq compare pids in
  check Alcotest.int "distinct pids" 20 (List.length distinct);
  List.iter
    (fun (t, pid) ->
      check Alcotest.bool "time in horizon" true (t >= 0 && t < 50);
      check Alcotest.bool "pid in range" true (pid >= 0 && pid < 100))
    crashes

let test_crash_burst_properties () =
  let rng = Renaming_rng.Xoshiro.create 11L in
  let crashes = Crash_pattern.burst ~rng ~n:50 ~failures:12 ~at:30 ~width:5 in
  check Alcotest.int "count" 12 (List.length crashes);
  let distinct = List.sort_uniq compare (List.map snd crashes) in
  check Alcotest.int "distinct pids" 12 (List.length distinct);
  List.iter
    (fun (t, pid) ->
      check Alcotest.bool "time in window" true (t >= 30 && t < 35);
      check Alcotest.bool "pid in range" true (pid >= 0 && pid < 50))
    crashes

let test_crash_burst_width_one () =
  (* width 1 degenerates to "everyone at tick [at]". *)
  let rng = Renaming_rng.Xoshiro.create 11L in
  let crashes = Crash_pattern.burst ~rng ~n:8 ~failures:3 ~at:7 ~width:1 in
  List.iter (fun (t, _) -> check Alcotest.int "pinned time" 7 t) crashes

let test_crash_burst_validation () =
  let rng = Renaming_rng.Xoshiro.create 11L in
  Alcotest.check_raises "too many failures"
    (Invalid_argument "Crash_pattern: failures must be in [0, n)") (fun () ->
      ignore (Crash_pattern.burst ~rng ~n:4 ~failures:4 ~at:0 ~width:2));
  Alcotest.check_raises "negative at"
    (Invalid_argument "Crash_pattern.burst: at must be >= 0") (fun () ->
      ignore (Crash_pattern.burst ~rng ~n:4 ~failures:2 ~at:(-1) ~width:2));
  Alcotest.check_raises "zero width"
    (Invalid_argument "Crash_pattern.burst: width must be >= 1") (fun () ->
      ignore (Crash_pattern.burst ~rng ~n:4 ~failures:2 ~at:0 ~width:0));
  (* A zero-crash "burst" is always an upstream bug (integer-division
     underflow at small [n]); unlike [random]/[spread] it must refuse
     rather than silently degrade the cell to a fault-free run. *)
  Alcotest.check_raises "zero failures"
    (Invalid_argument "Crash_pattern.burst: failures must be >= 1") (fun () ->
      ignore (Crash_pattern.burst ~rng ~n:4 ~failures:0 ~at:0 ~width:2))

let test_crash_burst_wider_than_population () =
  (* A burst window far wider than the population is legal: the window
     bounds *times*, not pids, so the schedule simply spreads the few
     crashes thinly across it. *)
  let rng = Renaming_rng.Xoshiro.create 17L in
  let crashes = Crash_pattern.burst ~rng ~n:4 ~failures:3 ~at:2 ~width:100 in
  check Alcotest.int "count" 3 (List.length crashes);
  let distinct = List.sort_uniq compare (List.map snd crashes) in
  check Alcotest.int "distinct pids" 3 (List.length distinct);
  List.iter
    (fun (t, pid) ->
      check Alcotest.bool "time in the wide window" true (t >= 2 && t < 102);
      check Alcotest.bool "pid in the small population" true (pid >= 0 && pid < 4))
    crashes

let test_crash_zero_length_schedule () =
  (* [random] documents [failures = 0]: it yields an empty schedule — a
     run with no crash events, not an error. *)
  let rng = Renaming_rng.Xoshiro.create 17L in
  check
    Alcotest.(list (pair int int))
    "random: empty" []
    (Crash_pattern.random ~rng ~n:6 ~failures:0 ~horizon:10)

let test_crash_back_to_back_bursts () =
  (* Two bursts whose windows tile without a gap ([at, at+w) then
     [at+w, at+2w)) compose into one schedule: correlated failure waves
     hitting in quick succession.  Times stay inside their own window,
     so the waves never interleave even though the draws share an rng. *)
  let rng = Renaming_rng.Xoshiro.create 23L in
  let wave1 = Crash_pattern.burst ~rng ~n:20 ~failures:4 ~at:5 ~width:3 in
  let wave2 = Crash_pattern.burst ~rng ~n:20 ~failures:4 ~at:8 ~width:3 in
  List.iter
    (fun (t, _) -> check Alcotest.bool "wave 1 inside [5, 8)" true (t >= 5 && t < 8))
    wave1;
  List.iter
    (fun (t, _) -> check Alcotest.bool "wave 2 inside [8, 11)" true (t >= 8 && t < 11))
    wave2;
  let combined = wave1 @ wave2 in
  check Alcotest.int "combined schedule size" 8 (List.length combined);
  (* Within a wave pids are distinct; across waves they may repeat (a
     restarted process can be hit again), which the combined schedule
     must tolerate without collapsing entries. *)
  let per_wave w = List.length (List.sort_uniq compare (List.map snd w)) in
  check Alcotest.int "wave 1 distinct pids" 4 (per_wave wave1);
  check Alcotest.int "wave 2 distinct pids" 4 (per_wave wave2)

(* Shared bounds contract: every pattern emits distinct in-range pids and
   non-negative times, exactly [failures] of them. *)
let test_crash_bounds_all_patterns () =
  let n = 40 and failures = 9 and horizon = 25 in
  let rng () = Renaming_rng.Xoshiro.create 13L in
  let patterns =
    [
      ("random", Crash_pattern.random ~rng:(rng ()) ~n ~failures ~horizon);
      ("burst", Crash_pattern.burst ~rng:(rng ()) ~n ~failures ~at:6 ~width:4);
    ]
  in
  List.iter
    (fun (name, crashes) ->
      check Alcotest.int (name ^ ": count") failures (List.length crashes);
      let distinct = List.sort_uniq compare (List.map snd crashes) in
      check Alcotest.int (name ^ ": distinct pids") failures (List.length distinct);
      List.iter
        (fun (t, pid) ->
          check Alcotest.bool (name ^ ": time >= 0") true (t >= 0);
          check Alcotest.bool (name ^ ": pid in [0,n)") true (pid >= 0 && pid < n))
        crashes)
    patterns

let test_crash_validation () =
  let rng = Renaming_rng.Xoshiro.create 9L in
  Alcotest.check_raises "too many failures"
    (Invalid_argument "Crash_pattern: failures must be in [0, n)") (fun () ->
      ignore (Crash_pattern.random ~rng ~n:10 ~failures:10 ~horizon:5))

(* --- Zipf skew edge cases --- *)

let close ?(eps = 1e-9) msg expected actual =
  check Alcotest.bool msg true (Float.abs (expected -. actual) < eps)

let test_zipf_single () =
  (* n = 1 is the degenerate distribution: the hottest rank is also the
     coldest, and it is the only rank. *)
  let z = Zipf.create ~s:1.2 ~n:1 () in
  close "pressure 0" 1.0 (Zipf.relative_pressure z 0);
  Alcotest.check_raises "one rank" (Invalid_argument "Zipf.relative_pressure: rank out of range")
    (fun () -> ignore (Zipf.relative_pressure z 1))

let test_zipf_uniform () =
  (* s = 0 degenerates to uniform: no rank is hotter than the coldest. *)
  let n = 10 in
  let z = Zipf.create ~s:0.0 ~n () in
  for k = 0 to n - 1 do
    close (Printf.sprintf "pressure %d" k) 1.0 (Zipf.relative_pressure z k)
  done

let test_zipf_high_skew () =
  (* Very high skew: rank 0 is 16^8 times hotter than the coldest rank,
     pressures still strictly decreasing and finite. *)
  let n = 16 in
  let z = Zipf.create ~s:8.0 ~n () in
  for k = 1 to n - 1 do
    check Alcotest.bool
      (Printf.sprintf "decreasing at %d" k)
      true
      (Zipf.relative_pressure z k < Zipf.relative_pressure z (k - 1))
  done;
  let p = Zipf.relative_pressure z 0 in
  check Alcotest.bool "pressure finite" true (Float.is_finite p);
  check Alcotest.bool "pressure huge" true (p > 1e9)

let qcheck_zipf_pressure =
  QCheck.Test.make ~name:"zipf: pressure by rank" ~count:200
    QCheck.(pair (int_range 1 64) (float_range 0.0 4.0))
    (fun (n, s) ->
      let z = Zipf.create ~s ~n () in
      (* Rank k weighs 1/(k+1)^s, so it is (n/(k+1))^s times hotter than
         rank n-1. *)
      for k = 0 to n - 1 do
        let p = Zipf.relative_pressure z k in
        let expected = (float_of_int n /. float_of_int (k + 1)) ** s in
        if Float.abs (p -. expected) > 1e-9 *. expected then
          QCheck.Test.fail_reportf "pressure %d is %g, not %g" k p expected;
        if k > 0 && p > Zipf.relative_pressure z (k - 1) then
          QCheck.Test.fail_reportf "pressure increased at %d" k
      done;
      Zipf.relative_pressure z (n - 1) = 1.0)

let tests =
  [
    ( "workload",
      [
        Alcotest.test_case "all at once" `Quick test_all_at_once;
        Alcotest.test_case "staggered" `Quick test_staggered;
        Alcotest.test_case "bursty" `Quick test_bursty;
        Alcotest.test_case "bursty uneven" `Quick test_bursty_uneven;
        Alcotest.test_case "explicit" `Quick test_explicit;
        Alcotest.test_case "crash random" `Quick test_crash_random_properties;
        Alcotest.test_case "crash burst" `Quick test_crash_burst_properties;
        Alcotest.test_case "crash burst width one" `Quick test_crash_burst_width_one;
        Alcotest.test_case "crash burst validation" `Quick test_crash_burst_validation;
        Alcotest.test_case "crash burst wider than population" `Quick
          test_crash_burst_wider_than_population;
        Alcotest.test_case "crash zero-length schedule" `Quick test_crash_zero_length_schedule;
        Alcotest.test_case "crash back-to-back bursts" `Quick test_crash_back_to_back_bursts;
        Alcotest.test_case "crash bounds all patterns" `Quick test_crash_bounds_all_patterns;
        Alcotest.test_case "crash validation" `Quick test_crash_validation;
        Alcotest.test_case "zipf single rank" `Quick test_zipf_single;
        Alcotest.test_case "zipf uniform" `Quick test_zipf_uniform;
        Alcotest.test_case "zipf high skew" `Quick test_zipf_high_skew;
        QCheck_alcotest.to_alcotest qcheck_zipf_pressure;
      ] );
  ]
