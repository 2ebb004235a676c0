(* Tests for schedule trace recording and replay. *)

module Trace = Renaming_sched.Trace
module Program = Renaming_sched.Program
module Memory = Renaming_sched.Memory
module Executor = Renaming_sched.Executor
module Adversary = Renaming_sched.Adversary
module Report = Renaming_sched.Report
module Stream = Renaming_rng.Stream
module Geometric = Renaming_core.Loose_geometric

let check = Alcotest.check

let scan_competition ~n =
  let memory = Memory.create ~namespace:n () in
  let programs = Array.init n (fun _ -> Program.scan_names ~first:0 ~count:n) in
  { Executor.memory; programs; label = "competition" }

let test_record_counts_events () =
  let trace = Trace.create () in
  let adversary = Trace.recording trace ~base:(Adversary.round_robin ()) in
  let report = Executor.run ~adversary (scan_competition ~n:8) in
  check Alcotest.int "one event per tick" report.Report.ticks (Trace.length trace)

let test_replay_reproduces_run () =
  (* Record a run under a random adversary, then replay: the reports
     must match field by field. *)
  let trace = Trace.create () in
  let rng = Stream.fork_named (Stream.create 11L) ~name:"adv" in
  let adversary = Trace.recording trace ~base:(Adversary.uniform rng) in
  let original = Executor.run ~adversary (scan_competition ~n:12) in
  let replayed = Executor.run ~adversary:(Trace.replaying trace) (scan_competition ~n:12) in
  check Alcotest.int "same ticks" original.Report.ticks replayed.Report.ticks;
  check
    Alcotest.(array int)
    "same assignment" original.Report.assignment.Renaming_shm.Assignment.names
    replayed.Report.assignment.Renaming_shm.Assignment.names;
  check Alcotest.int "same max steps" (Report.max_steps original) (Report.max_steps replayed)

let test_replay_reproduces_randomized_algorithm () =
  (* Same but with a randomized algorithm: seeds pin the coin flips, the
     trace pins the schedule. *)
  let cfg = { Geometric.n = 256; ell = 2 } in
  let trace = Trace.create () in
  let rng = Stream.fork_named (Stream.create 13L) ~name:"adv" in
  let build () = Geometric.instance cfg ~stream:(Stream.create 77L) in
  let original =
    Executor.run ~adversary:(Trace.recording trace ~base:(Adversary.uniform rng)) (build ())
  in
  let replayed = Executor.run ~adversary:(Trace.replaying trace) (build ()) in
  check
    Alcotest.(array int)
    "identical assignment" original.Report.assignment.Renaming_shm.Assignment.names
    replayed.Report.assignment.Renaming_shm.Assignment.names

let test_replay_with_crashes () =
  let base =
    Adversary.with_crashes ~base:(Adversary.round_robin ()) ~crash_times:[ (3, 1); (5, 4) ]
  in
  let trace = Trace.create () in
  let original =
    Executor.run ~adversary:(Trace.recording trace ~base) (scan_competition ~n:8)
  in
  let replayed = Executor.run ~adversary:(Trace.replaying trace) (scan_competition ~n:8) in
  check Alcotest.(list int) "same crash set" original.Report.crashed replayed.Report.crashed

let test_census () =
  let trace = Trace.create () in
  let adversary = Trace.recording trace ~base:(Adversary.round_robin ()) in
  ignore (Executor.run ~adversary (scan_competition ~n:4));
  let census = Trace.census trace in
  match List.assoc_opt "tas-name" census with
  | Some count -> check Alcotest.bool "tas ops recorded" true (count > 0)
  | None -> Alcotest.fail "expected tas-name in census"

let test_replay_divergence_detected () =
  let trace = Trace.create () in
  let adversary = Trace.recording trace ~base:(Adversary.round_robin ()) in
  ignore (Executor.run ~adversary (scan_competition ~n:6));
  (* Replaying against a SMALLER instance diverges: pids in the trace
     are eventually not runnable (they finish earlier with fewer
     competitors), or the trace outlives the run.  The failure must be
     the structured {!Trace.Divergence}, not a bare Failure. *)
  (match Executor.run ~adversary:(Trace.replaying trace) (scan_competition ~n:3) with
  | exception Trace.Divergence d ->
    check Alcotest.bool "failing event index in range" true
      (d.Trace.at >= 0 && d.Trace.at <= Trace.length trace);
    check Alcotest.bool "expected action names a trace pid or exhaustion" true
      (match d.Trace.expected with
      | `Schedule pid | `Fault pid | `Crash pid | `Recover pid -> pid >= 0 && pid < 6
      | `Exhausted -> true);
    (* The runnable set the replayer actually saw: a subset of the small
       instance's pids, sorted. *)
    List.iter
      (fun pid -> check Alcotest.bool "runnable pid in small instance" true (pid >= 0 && pid < 3))
      d.Trace.runnable;
    check Alcotest.(list int) "runnable sorted" (List.sort compare d.Trace.runnable)
      d.Trace.runnable;
    check Alcotest.(list int) "nobody crashed" [] d.Trace.crashed;
    (* pp_divergence renders without raising and mentions the index. *)
    let rendered = Format.asprintf "%a" Trace.pp_divergence d in
    check Alcotest.bool "pretty-printer mentions decision index" true
      (let needle = Printf.sprintf "decision %d" d.Trace.at in
       let n = String.length rendered and m = String.length needle in
       let rec go i = i + m <= n && (String.sub rendered i m = needle || go (i + 1)) in
       go 0)
  | _ -> Alcotest.fail "expected Trace.Divergence")

let test_replay_divergence_on_exhaustion () =
  (* A recorded schedule runs out of events while processes of a larger
     instance are still runnable: `Exhausted, at the trace length. *)
  let trace = Trace.create () in
  let adversary = Trace.recording trace ~base:(Adversary.round_robin ()) in
  ignore (Executor.run ~adversary (scan_competition ~n:2));
  match Executor.run ~adversary:(Trace.replaying trace) (scan_competition ~n:4) with
  | exception Trace.Divergence d ->
    check Alcotest.bool "exhausted" true (d.Trace.expected = `Exhausted);
    check Alcotest.int "at the end of the trace" (Trace.length trace) d.Trace.at;
    check Alcotest.bool "someone still runnable" true (d.Trace.runnable <> [])
  | _ -> Alcotest.fail "expected Trace.Divergence (trace exhausted)"

let tests =
  [
    ( "trace",
      [
        Alcotest.test_case "records events" `Quick test_record_counts_events;
        Alcotest.test_case "replay reproduces run" `Quick test_replay_reproduces_run;
        Alcotest.test_case "replay randomized algorithm" `Quick test_replay_reproduces_randomized_algorithm;
        Alcotest.test_case "replay with crashes" `Quick test_replay_with_crashes;
        Alcotest.test_case "census" `Quick test_census;
        Alcotest.test_case "replay divergence" `Quick test_replay_divergence_detected;
        Alcotest.test_case "replay divergence on exhaustion" `Quick
          test_replay_divergence_on_exhaustion;
      ] );
  ]

(* --- appended: timeline rendering --- *)

let test_timeline_renders () =
  let trace = Trace.create () in
  let adversary = Trace.recording trace ~base:(Adversary.round_robin ()) in
  ignore (Executor.run ~adversary (scan_competition ~n:3));
  let s = Format.asprintf "%a" (Trace.pp_timeline ?max_pids:None ?max_events:None) trace in
  check Alcotest.bool "has lanes" true (String.length s > 0);
  (* three lanes expected *)
  let lines = String.split_on_char '\n' s |> List.filter (fun l -> String.length l > 2 && l.[0] = 'p') in
  check Alcotest.int "three lanes" 3 (List.length lines)

let timeline_tests =
  [ ("trace-timeline", [ Alcotest.test_case "timeline renders" `Quick test_timeline_renders ]) ]

let tests = tests @ timeline_tests
