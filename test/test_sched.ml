(* Tests for the program monad, memory, adversaries and the executor. *)

module Program = Renaming_sched.Program
module Op = Renaming_sched.Op
module Memory = Renaming_sched.Memory
module Adversary = Renaming_sched.Adversary
module Executor = Renaming_sched.Executor
module Report = Renaming_sched.Report
module Stream = Renaming_rng.Stream

let check = Alcotest.check
open Program.Syntax

let test_program_pure () =
  check Alcotest.(option int) "pure program" (Some 5) (Program.run_local (Program.return 5))

let test_program_parks_on_op () =
  check Alcotest.(option bool) "parked program" None (Program.run_local (Program.tas_name 0))

let test_program_bind_associative_observation () =
  (* (p >>= f) >>= g and p >>= (fun x -> f x >>= g) behave identically
     under execution. *)
  let p1 = Program.bind (Program.bind (Program.return 1) (fun x -> Program.return (x + 1)))
      (fun y -> Program.return (y * 2)) in
  let p2 =
    Program.bind (Program.return 1) (fun x ->
        Program.bind (Program.return (x + 1)) (fun y -> Program.return (y * 2)))
  in
  check Alcotest.(option int) "assoc left" (Some 4) (Program.run_local p1);
  check Alcotest.(option int) "assoc right" (Some 4) (Program.run_local p2)

let run_single program ~namespace =
  let memory = Memory.create ~namespace () in
  let instance = { Executor.memory; programs = [| program |]; label = "test" } in
  Executor.run ~adversary:(Adversary.round_robin ()) instance

let test_scan_names_finds_first_free () =
  let program =
    let* a = Program.tas_name 0 in
    let* b = Program.scan_names ~first:0 ~count:3 in
    ignore a;
    Program.return b
  in
  let report = run_single program ~namespace:3 in
  (* The process took name 0 itself, so the scan must return name 1. *)
  check Alcotest.int "scan skips taken" 1
    report.Report.assignment.Renaming_shm.Assignment.names.(0)

let test_scan_names_exhausted () =
  let program =
    let* _ = Program.tas_name 0 in
    Program.scan_names ~first:0 ~count:1
  in
  let report = run_single program ~namespace:1 in
  (* Process owns register 0 already; the scan finds nothing free. *)
  check Alcotest.int "no name from scan" 0 (Report.named_count report)

let test_memory_apply_ops () =
  let memory = Memory.create ~namespace:2 ~aux:2 () in
  check Alcotest.bool "tas name" true (Memory.apply memory ~pid:0 (Op.Tas_name 1) = Op.Bool true);
  check Alcotest.bool "tas name again" true
    (Memory.apply memory ~pid:1 (Op.Tas_name 1) = Op.Bool false);
  check Alcotest.bool "read name" true (Memory.apply memory ~pid:2 (Op.Read_name 1) = Op.Bool true);
  check Alcotest.bool "read free name" true
    (Memory.apply memory ~pid:2 (Op.Read_name 0) = Op.Bool false);
  check Alcotest.bool "tas aux" true (Memory.apply memory ~pid:0 (Op.Tas_aux 0) = Op.Bool true);
  check Alcotest.bool "read aux" true (Memory.apply memory ~pid:0 (Op.Read_aux 0) = Op.Bool true)

let test_memory_tau_roundtrip () =
  let tau = Renaming_device.Tau_register.create ~tau:2 ~width:4 () in
  let memory = Memory.create ~namespace:4 ~taus:[| tau |] ~processes:1 () in
  check Alcotest.bool "submit" true
    (Memory.apply memory ~pid:0 (Op.Tau_submit { reg = 0; bit = 1 }) = Op.Unit);
  check Alcotest.bool "pending before tick" true
    (Memory.apply memory ~pid:0 (Op.Tau_poll 0) = Op.Tau Renaming_device.Tau_register.Pending);
  Memory.tick_taus memory;
  check Alcotest.bool "won after tick" true
    (Memory.apply memory ~pid:0 (Op.Tau_poll 0) = Op.Tau Renaming_device.Tau_register.Won_bit)

let simple_competition ~n ~namespace ~adversary =
  (* n processes all scan the same namespace: a gauntlet for winner
     uniqueness under any schedule. *)
  let memory = Memory.create ~namespace () in
  let programs = Array.init n (fun _ -> Program.scan_names ~first:0 ~count:namespace) in
  let instance = { Executor.memory; programs; label = "competition" } in
  Executor.run ~adversary instance

let test_executor_all_named_when_space () =
  let report = simple_competition ~n:8 ~namespace:8 ~adversary:(Adversary.round_robin ()) in
  check Alcotest.bool "sound" true (Report.is_sound report);
  check Alcotest.int "all named" 8 (Report.named_count report)

let test_executor_excess_processes_fail_cleanly () =
  let report = simple_competition ~n:5 ~namespace:3 ~adversary:(Adversary.round_robin ()) in
  check Alcotest.bool "sound" true (Report.is_sound report);
  check Alcotest.int "three named" 3 (Report.named_count report);
  check Alcotest.int "two unnamed" 2 (List.length (Report.surviving_unnamed report))

let all_adversaries () =
  [
    Adversary.round_robin ();
    Adversary.uniform (Stream.fork_named (Stream.create 3L) ~name:"adv");
    Adversary.lifo;
    Adversary.adaptive_contention;
    Adversary.colluding;
  ]

let test_soundness_under_all_adversaries () =
  List.iter
    (fun adversary ->
      let report = simple_competition ~n:10 ~namespace:10 ~adversary in
      check Alcotest.bool ("sound under " ^ report.Report.adversary) true (Report.is_sound report);
      check Alcotest.int ("complete under " ^ report.Report.adversary) 10
        (Report.named_count report))
    (all_adversaries ())

let test_step_accounting () =
  (* One process, three operations: ledger must say 3. *)
  let program =
    let* _ = Program.read_name 0 in
    let* _ = Program.read_name 1 in
    let* _ = Program.tas_name 0 in
    Program.return (Some 0)
  in
  let report = run_single program ~namespace:2 in
  check Alcotest.int "steps" 3 (Renaming_shm.Step_ledger.steps_of report.Report.ledger ~pid:0);
  check Alcotest.int "ticks" 3 report.Report.ticks

let test_crash_adversary () =
  let adversary =
    Adversary.with_crashes ~base:(Adversary.round_robin ()) ~crash_times:[ (0, 0); (2, 3) ]
  in
  let report = simple_competition ~n:6 ~namespace:6 ~adversary in
  check Alcotest.(list int) "crashed pids" [ 0; 3 ] report.Report.crashed;
  check Alcotest.bool "sound" true (Report.is_sound report);
  (* The four survivors must all be named. *)
  check Alcotest.int "survivors named" 0 (List.length (Report.surviving_unnamed report))

let test_crash_adversary_skips_finished () =
  (* Crashing a pid far in the future after it finished must not blow
     up. *)
  let adversary =
    Adversary.with_crashes ~base:(Adversary.round_robin ()) ~crash_times:[ (1000000, 0) ]
  in
  let report = simple_competition ~n:2 ~namespace:2 ~adversary in
  check Alcotest.(list int) "nobody crashed" [] report.Report.crashed

let test_lifo_starves_low_pids () =
  (* Under LIFO with a single free register, the highest pid wins it. *)
  let report = simple_competition ~n:4 ~namespace:1 ~adversary:Adversary.lifo in
  let names = report.Report.assignment.Renaming_shm.Assignment.names in
  check Alcotest.int "pid 3 wins" 0 names.(3)

let test_max_ticks_guard () =
  (* A livelocked run ends with a structured Livelock outcome (so chaos
     sweeps can record it) instead of an exception. *)
  let rec spin () =
    let* _ = Program.read_name 0 in
    spin ()
  in
  let memory = Memory.create ~namespace:1 () in
  let instance = { Executor.memory; programs = [| spin () |]; label = "spinner" } in
  let report = Executor.run ~max_ticks:100 ~adversary:(Adversary.round_robin ()) instance in
  check Alcotest.bool "livelock detected" true (Report.is_livelock report);
  check Alcotest.string "outcome name" "livelock" (Report.outcome_name report);
  check Alcotest.bool "ticks bounded" true (report.Report.ticks <= 101);
  check Alcotest.int "nobody named" 0 (Report.named_count report)

let test_stepped_event_hook () =
  let ops = ref [] in
  let program =
    let* _ = Program.tas_name 0 in
    Program.return (Some 0)
  in
  let memory = Memory.create ~namespace:1 () in
  let instance = { Executor.memory; programs = [| program |]; label = "hook" } in
  ignore
    (Executor.run
       ~on_event:(function
         | Executor.Stepped { time; pid; op; _ } -> ops := (time, pid, op) :: !ops
         | Executor.Crashed _ | Recovered _ | Returned _ -> ())
       ~adversary:(Adversary.round_robin ()) instance);
  match !ops with
  | [ (0, 0, Op.Tas_name 0) ] -> ()
  | _ -> Alcotest.fail "expected exactly one Stepped event for Tas_name 0"

let test_adversary_arrival_pattern_wrap () =
  (* Arrival-delayed round robin still names everyone. *)
  let pattern = Renaming_workload.Arrival.Staggered { gap = 3 } in
  let adversary =
    Renaming_workload.Arrival.adversary pattern ~n:6 ~base:(Adversary.round_robin ())
  in
  let report = simple_competition ~n:6 ~namespace:6 ~adversary in
  check Alcotest.int "all named" 6 (Report.named_count report);
  check Alcotest.bool "sound" true (Report.is_sound report)

let qcheck_competition_sound_any_seed =
  QCheck.Test.make ~count:50 ~name:"competition is sound under uniform adversary, any seed"
    QCheck.(pair small_int (int_range 1 30))
    (fun (seed, n) ->
      let adversary =
        Adversary.uniform (Stream.fork_named (Stream.create (Int64.of_int seed)) ~name:"a")
      in
      let report = simple_competition ~n ~namespace:n ~adversary in
      Report.is_sound report && Report.named_count report = n)

let tests =
  [
    ( "sched",
      [
        Alcotest.test_case "pure program" `Quick test_program_pure;
        Alcotest.test_case "program parks" `Quick test_program_parks_on_op;
        Alcotest.test_case "bind associativity" `Quick test_program_bind_associative_observation;
        Alcotest.test_case "scan finds free" `Quick test_scan_names_finds_first_free;
        Alcotest.test_case "scan exhausted" `Quick test_scan_names_exhausted;
        Alcotest.test_case "memory ops" `Quick test_memory_apply_ops;
        Alcotest.test_case "memory tau roundtrip" `Quick test_memory_tau_roundtrip;
        Alcotest.test_case "executor names all" `Quick test_executor_all_named_when_space;
        Alcotest.test_case "executor excess processes" `Quick test_executor_excess_processes_fail_cleanly;
        Alcotest.test_case "soundness all adversaries" `Quick test_soundness_under_all_adversaries;
        Alcotest.test_case "step accounting" `Quick test_step_accounting;
        Alcotest.test_case "crash adversary" `Quick test_crash_adversary;
        Alcotest.test_case "crash skips finished" `Quick test_crash_adversary_skips_finished;
        Alcotest.test_case "lifo starves" `Quick test_lifo_starves_low_pids;
        Alcotest.test_case "max ticks guard" `Quick test_max_ticks_guard;
        Alcotest.test_case "stepped event hook" `Quick test_stepped_event_hook;
        Alcotest.test_case "arrival adversary" `Quick test_adversary_arrival_pattern_wrap;
        QCheck_alcotest.to_alcotest qcheck_competition_sound_any_seed;
      ] );
  ]

(* --- appended: printer coverage --- *)

let contains_substring haystack needle =
  let hl = String.length haystack and nl = String.length needle in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let test_report_pp_smoke () =
  let report = simple_competition ~n:4 ~namespace:4 ~adversary:(Adversary.round_robin ()) in
  let s = Format.asprintf "%a" Report.pp report in
  check Alcotest.bool "mentions adversary" true (contains_substring s "round-robin")

let extra_sched_tests =
  [
    ( "sched-extra",
      [
        Alcotest.test_case "report pp" `Quick test_report_pp_smoke;
      ] );
  ]

let tests = tests @ extra_sched_tests
