(* Tests for long-lived renaming (acquire/release under churn). *)

module Longlived = Renaming_longlived.Longlived
module Tas_array = Renaming_shm.Tas_array
module Adversary = Renaming_sched.Adversary
module Report = Renaming_sched.Report
module Stream = Renaming_rng.Stream
module Summary = Renaming_stats.Summary

let check = Alcotest.check

let test_release_owner_checked () =
  let t = Tas_array.create 4 in
  ignore (Tas_array.test_and_set t ~idx:1 ~pid:5);
  check Alcotest.bool "wrong owner refused" false (Tas_array.release t ~idx:1 ~pid:6);
  check Alcotest.bool "still held" true (Tas_array.is_set t 1);
  check Alcotest.bool "owner releases" true (Tas_array.release t ~idx:1 ~pid:5);
  check Alcotest.bool "free again" false (Tas_array.is_set t 1);
  check Alcotest.bool "no register set" false (List.exists (Tas_array.is_set t) [ 0; 1; 2; 3 ]);
  check Alcotest.bool "double release refused" false (Tas_array.release t ~idx:1 ~pid:5)

let test_release_then_reacquire () =
  let t = Tas_array.create 2 in
  ignore (Tas_array.test_and_set t ~idx:0 ~pid:1);
  ignore (Tas_array.release t ~idx:0 ~pid:1);
  check Alcotest.bool "reacquired by another" true (Tas_array.test_and_set t ~idx:0 ~pid:2);
  check Alcotest.(option int) "new owner" (Some 2) (Tas_array.owner t 0)

let test_config_validation () =
  Alcotest.check_raises "bad epsilon"
    (Invalid_argument "Longlived.make_config: epsilon must be positive") (fun () ->
      ignore (Longlived.make_config ~epsilon:(-1.) ~sessions:4 ()));
  Alcotest.check_raises "bad sessions"
    (Invalid_argument "Longlived.make_config: sessions must be >= 1") (fun () ->
      ignore (Longlived.make_config ~sessions:0 ()))

let test_namespace_strictly_larger () =
  let cfg = Longlived.make_config ~epsilon:0.01 ~sessions:10 () in
  check Alcotest.bool "m > sessions" true (Longlived.namespace cfg > 10)

let run_churn ?adversary ~sessions ~rounds ~epsilon ~seed () =
  let cfg = Longlived.make_config ~epsilon ~rounds ~sessions () in
  let stats = Longlived.create_stats () in
  let report = Longlived.run ?adversary ~stats cfg ~seed in
  (cfg, !stats, report)

let test_all_cycles_complete () =
  let sessions = 32 and rounds = 6 in
  let _, stats, report = run_churn ~sessions ~rounds ~epsilon:0.5 ~seed:1L () in
  check Alcotest.int "acquires = sessions*rounds" (sessions * rounds) stats.Longlived.acquires;
  check Alcotest.int "releases match" (sessions * rounds) stats.Longlived.releases;
  check Alcotest.int "no failed releases" 0 stats.Longlived.release_failures;
  (* Long-lived programs return no names. *)
  check Alcotest.int "no residual names" 0 (Report.named_count report)

let test_mutual_exclusion_bound () =
  let sessions = 24 in
  let _, stats, _ = run_churn ~sessions ~rounds:5 ~epsilon:0.25 ~seed:2L () in
  check Alcotest.bool "held <= sessions" true (stats.Longlived.max_held <= sessions);
  check Alcotest.bool "some concurrency observed" true (stats.Longlived.max_held >= 1)

let test_probe_costs_reasonable () =
  let cfg, stats, _ = run_churn ~sessions:64 ~rounds:8 ~epsilon:0.5 ~seed:3L () in
  let mean = Summary.mean stats.Longlived.probe_summary in
  check Alcotest.bool "mean probes below worst-case ceiling" true
    (mean <= Longlived.predicted_probes cfg +. 1.)

let test_under_adversaries () =
  List.iter
    (fun adversary ->
      let _, stats, _ =
        run_churn ~adversary ~sessions:16 ~rounds:4 ~epsilon:0.5 ~seed:4L ()
      in
      check Alcotest.int "all acquires done" (16 * 4) stats.Longlived.acquires;
      check Alcotest.int "no failed releases" 0 stats.Longlived.release_failures)
    [
      Adversary.lifo;
      Adversary.adaptive_contention;
      Adversary.colluding;
      Adversary.uniform (Stream.fork_named (Stream.create 5L) ~name:"a");
    ]

(* Probe-cap exhaustion (the structured slow path): run one session
   against a pre-filled namespace of six names so random probes keep
   losing.  With one free slot the deterministic sweep must recover; with
   none the session must abort gracefully instead of spinning. *)

module Memory = Renaming_sched.Memory
module Op = Renaming_sched.Op
module Executor = Renaming_sched.Executor

let run_prefilled ?probe_cap ~prefill ~rounds ~seed () =
  let cfg = Longlived.make_config ~epsilon:5.0 ~rounds ?probe_cap ~sessions:1 () in
  let m = Longlived.namespace cfg in
  let stats = Longlived.create_stats () in
  let inst = Longlived.instance ~stats cfg ~stream:(Stream.create seed) in
  for i = 0 to prefill m - 1 do
    ignore (Memory.apply inst.Executor.memory ~pid:9 (Op.Tas_name i))
  done;
  (!stats, Executor.run ~adversary:(Adversary.round_robin ()) inst)

let test_probe_cap_exhaustion_recovers () =
  let stats, _ = run_prefilled ~probe_cap:1 ~prefill:(fun m -> m - 1) ~rounds:3 ~seed:21L () in
  check Alcotest.int "all acquires still complete" 3 stats.Longlived.acquires;
  check Alcotest.int "all releases follow" 3 stats.Longlived.releases;
  check Alcotest.bool "cap tripped at least once" true
    (stats.Longlived.cap_exhaustions >= 1);
  check Alcotest.int "no aborts: the sweep recovered" 0
    stats.Longlived.aborted_sessions

let test_probe_cap_abort_graceful () =
  let stats, report = run_prefilled ~probe_cap:1 ~prefill:(fun m -> m) ~rounds:3 ~seed:22L () in
  check Alcotest.int "no acquires in a full namespace" 0 stats.Longlived.acquires;
  check Alcotest.bool "cap tripped" true (stats.Longlived.cap_exhaustions >= 1);
  check Alcotest.int "aborted exactly once" 1 stats.Longlived.aborted_sessions;
  check Alcotest.int "returns no name" 0 (Report.named_count report)

(* In a full namespace a session probes [cap] times, sweeps all six
   names and aborts, so its steps read the effective cap. *)
let test_probe_cap_config () =
  let steps ?probe_cap () =
    let _, report = run_prefilled ?probe_cap ~prefill:Fun.id ~rounds:1 ~seed:23L () in
    Report.max_steps report
  in
  check Alcotest.int "explicit cap" (7 + 6) (steps ~probe_cap:7 ());
  check Alcotest.int "default cap is 64m" ((64 * 6) + 6) (steps ());
  Alcotest.check_raises "bad cap"
    (Invalid_argument "Longlived.make_config: probe_cap must be >= 0") (fun () ->
      ignore (Longlived.make_config ~probe_cap:(-1) ~sessions:4 ()))

let qcheck_longlived_exclusion =
  QCheck.Test.make ~count:25 ~name:"long-lived churn never violates exclusion"
    QCheck.(triple small_int (int_range 1 32) (int_range 1 6))
    (fun (seed, sessions, rounds) ->
      let _, stats, _ =
        run_churn ~sessions ~rounds ~epsilon:0.5 ~seed:(Int64.of_int seed) ()
      in
      stats.Longlived.release_failures = 0
      && stats.Longlived.max_held <= sessions
      && stats.Longlived.acquires = sessions * rounds)

let tests =
  [
    ( "longlived",
      [
        Alcotest.test_case "release owner-checked" `Quick test_release_owner_checked;
        Alcotest.test_case "release then reacquire" `Quick test_release_then_reacquire;
        Alcotest.test_case "config validation" `Quick test_config_validation;
        Alcotest.test_case "namespace larger" `Quick test_namespace_strictly_larger;
        Alcotest.test_case "cycles complete" `Quick test_all_cycles_complete;
        Alcotest.test_case "mutual exclusion" `Quick test_mutual_exclusion_bound;
        Alcotest.test_case "probe costs" `Quick test_probe_costs_reasonable;
        Alcotest.test_case "under adversaries" `Quick test_under_adversaries;
        Alcotest.test_case "probe-cap exhaustion recovers" `Quick test_probe_cap_exhaustion_recovers;
        Alcotest.test_case "probe-cap abort graceful" `Quick test_probe_cap_abort_graceful;
        Alcotest.test_case "probe-cap config" `Quick test_probe_cap_config;
        QCheck_alcotest.to_alcotest qcheck_longlived_exclusion;
      ] );
  ]
