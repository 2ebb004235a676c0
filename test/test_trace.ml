(* Tests for recording a run's schedule as choices and replaying it. *)

module Directed = Renaming_sched.Directed
module Program = Renaming_sched.Program
module Memory = Renaming_sched.Memory
module Executor = Renaming_sched.Executor
module Adversary = Renaming_sched.Adversary
module Report = Renaming_sched.Report
module Stream = Renaming_rng.Stream
module Geometric = Renaming_core.Loose_geometric
module Injector = Renaming_faults.Injector

let check = Alcotest.check

let scan_competition ~n =
  let memory = Memory.create ~namespace:n () in
  let programs = Array.init n (fun _ -> Program.scan_names ~first:0 ~count:n) in
  { Executor.memory; programs; label = "competition" }

(* An [on_event] listener that collects the run's schedule, newest
   first. *)
let collect choices e = Option.iter (fun c -> choices := c :: !choices) (Directed.choice_of_event e)

(* Runs [instance] under [adversary] and returns its report with the
   schedule collected from the event stream. *)
let record ?inject ~adversary instance =
  let choices = ref [] in
  let report = Executor.run ?inject ~on_event:(collect choices) ~adversary instance in
  (report, List.rev !choices)

let replay ?on_event ~prefix instance =
  match (Directed.run ?on_event ~strict:true ~prefix instance).Directed.outcome with
  | Directed.Finished report -> report
  | Directed.Raised e -> Alcotest.failf "replay raised %s" (Printexc.to_string e)

let names report = report.Report.assignment.Renaming_shm.Assignment.names

let test_record_counts_events () =
  let report, choices = record ~adversary:(Adversary.round_robin ()) (scan_competition ~n:8) in
  check Alcotest.int "one choice per tick" report.Report.ticks (List.length choices)

let test_replay_reproduces_run () =
  (* Record a run under a random adversary, then replay: the reports
     must match field by field. *)
  let rng = Stream.fork_named (Stream.create 11L) ~name:"adv" in
  let original, prefix = record ~adversary:(Adversary.uniform rng) (scan_competition ~n:12) in
  let replayed = replay ~prefix (scan_competition ~n:12) in
  check Alcotest.int "same ticks" original.Report.ticks replayed.Report.ticks;
  check Alcotest.(array int) "same assignment" (names original) (names replayed);
  check Alcotest.int "same max steps" (Report.max_steps original) (Report.max_steps replayed)

let test_replay_reproduces_randomized_algorithm () =
  (* Same but with a randomized algorithm: seeds pin the coin flips, the
     schedule pins the interleaving. *)
  let cfg = { Geometric.n = 256; ell = 2 } in
  let rng = Stream.fork_named (Stream.create 13L) ~name:"adv" in
  let build () = Geometric.instance cfg ~stream:(Stream.create 77L) in
  let original, prefix = record ~adversary:(Adversary.uniform rng) (build ()) in
  let replayed = replay ~prefix (build ()) in
  check Alcotest.(array int) "identical assignment" (names original) (names replayed)

let test_replay_with_crashes () =
  let adversary =
    Adversary.with_crashes ~base:(Adversary.round_robin ()) ~crash_times:[ (3, 1); (5, 4) ]
  in
  let original, prefix = record ~adversary (scan_competition ~n:8) in
  let replayed = replay ~prefix (scan_competition ~n:8) in
  check Alcotest.(list int) "same crash set" original.Report.crashed replayed.Report.crashed

let test_fault_schedule_round_trips () =
  (* Injected faults and crash-recovery become [Fault], [Crash] and
     [Recover] choices; the strict replay reproduces them without the
     injector or its RNG. *)
  let cfg = { Geometric.n = 64; ell = 2 } in
  let build () = Geometric.instance cfg ~stream:(Stream.create 5L) in
  let adversary =
    Adversary.with_crash_recovery
      ~base:(Adversary.uniform (Stream.fork_named (Stream.create 9L) ~name:"adv"))
      ~crashes:[ (10, 3); (25, 17); (40, 41) ]
      ~recover_after:30
  in
  let inject =
    Injector.bernoulli ~rate:0.1 ~rng:(Stream.fork_named (Stream.create 9L) ~name:"faults")
  in
  let original, prefix = record ~inject ~adversary (build ()) in
  let count_faults =
    List.fold_left (fun acc c -> match c with Directed.Fault _ -> acc + 1 | _ -> acc) 0
  in
  let faults = count_faults prefix in
  check Alcotest.bool "the schedule carries faults" true (faults > 0);
  check Alcotest.bool "someone recovered" true (original.Report.recovered <> []);
  let rerecorded = ref [] in
  let replayed = replay ~on_event:(collect rerecorded) ~prefix (build ()) in
  check Alcotest.int "same ticks" original.Report.ticks replayed.Report.ticks;
  check Alcotest.(array int) "same names" (names original) (names replayed);
  check Alcotest.(list int) "same crashed" original.Report.crashed replayed.Report.crashed;
  check Alcotest.(list int) "same recovered" original.Report.recovered replayed.Report.recovered;
  check Alcotest.int "same fault count" faults (count_faults !rerecorded)

let contains ~needle s =
  let n = String.length s and m = String.length needle in
  let rec go i = i + m <= n && (String.sub s i m = needle || go (i + 1)) in
  go 0

let test_replay_divergence_detected () =
  let _, prefix = record ~adversary:(Adversary.round_robin ()) (scan_competition ~n:6) in
  (* Replaying against a SMALLER instance diverges: pids in the schedule
     are eventually not runnable (they finish earlier with fewer
     competitors), or the schedule outlives the run.  The failure must
     be the structured {!Directed.Divergence}, not a bare Failure. *)
  match (Directed.run ~strict:true ~prefix (scan_competition ~n:3)).Directed.outcome with
  | Directed.Raised (Directed.Divergence d) ->
    check Alcotest.bool "failing decision index in range" true
      (d.Directed.at >= 0 && d.Directed.at <= List.length prefix);
    check Alcotest.bool "expected choice names a recorded pid" true
      (match d.Directed.expected with
      | Some (Directed.Step pid | Fault pid | Crash pid | Recover pid) -> pid >= 0 && pid < 6
      | None -> false);
    (* The runnable set the replayer actually saw: a subset of the small
       instance's pids, sorted. *)
    List.iter
      (fun pid -> check Alcotest.bool "runnable pid in small instance" true (pid >= 0 && pid < 3))
      d.Directed.runnable;
    check Alcotest.(list int) "runnable sorted" (List.sort compare d.Directed.runnable)
      d.Directed.runnable;
    check Alcotest.(list int) "nobody crashed" [] d.Directed.crashed;
    (* The registered printer renders it and mentions the index. *)
    check Alcotest.bool "pretty-printer mentions decision index" true
      (contains
         ~needle:(Printf.sprintf "decision %d" d.Directed.at)
         (Printexc.to_string (Directed.Divergence d)))
  | _ -> Alcotest.fail "expected Directed.Divergence"

let test_replay_divergence_on_exhaustion () =
  (* A recorded schedule runs out while processes of a larger instance
     are still runnable: [expected = None], at the schedule's length. *)
  let _, prefix = record ~adversary:(Adversary.round_robin ()) (scan_competition ~n:2) in
  match (Directed.run ~strict:true ~prefix (scan_competition ~n:4)).Directed.outcome with
  | Directed.Raised (Directed.Divergence d) ->
    check Alcotest.bool "exhausted" true (d.Directed.expected = None);
    check Alcotest.int "at the end of the schedule" (List.length prefix) d.Directed.at;
    check Alcotest.bool "someone still runnable" true (d.Directed.runnable <> []);
    check Alcotest.bool "pretty-printer says exhausted" true
      (contains ~needle:"schedule exhausted" (Printexc.to_string (Directed.Divergence d)))
  | _ -> Alcotest.fail "expected Directed.Divergence (schedule exhausted)"

let tests =
  [
    ( "trace",
      [
        Alcotest.test_case "records events" `Quick test_record_counts_events;
        Alcotest.test_case "replay reproduces run" `Quick test_replay_reproduces_run;
        Alcotest.test_case "replay randomized algorithm" `Quick test_replay_reproduces_randomized_algorithm;
        Alcotest.test_case "replay with crashes" `Quick test_replay_with_crashes;
        Alcotest.test_case "fault schedule round-trips" `Quick test_fault_schedule_round_trips;
        Alcotest.test_case "replay divergence" `Quick test_replay_divergence_detected;
        Alcotest.test_case "replay divergence on exhaustion" `Quick
          test_replay_divergence_on_exhaustion;
      ] );
  ]
