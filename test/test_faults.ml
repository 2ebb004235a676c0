(* Tests for the fault-injection subsystem: retry combinators under
   injection, injector determinism, crash-recovery in the executor, the
   online safety monitor (including negative tests that seed violations)
   and a deterministic mini chaos campaign. *)

module Program = Renaming_sched.Program
module Op = Renaming_sched.Op
module Memory = Renaming_sched.Memory
module Adversary = Renaming_sched.Adversary
module Executor = Renaming_sched.Executor
module Report = Renaming_sched.Report
module Stream = Renaming_rng.Stream
module Xoshiro = Renaming_rng.Xoshiro
module Retry = Renaming_sched.Retry
module Plan = Renaming_plan.Plan
module Plan_exec = Renaming_sched.Plan_exec
module Injector = Renaming_faults.Injector
module Monitor = Renaming_faults.Monitor
module Campaign = Renaming_faults.Campaign
module Chaos = Renaming_harness.Chaos
module Assignment = Renaming_shm.Assignment
module Directed = Renaming_sched.Directed
module Json = Renaming_obs.Json

let check = Alcotest.check
open Program.Syntax

let run_single ?inject ?on_event program ~namespace =
  let memory = Memory.create ~namespace () in
  let instance = { Executor.memory; programs = [| program |]; label = "test" } in
  (Executor.run ?inject ?on_event ~adversary:(Adversary.round_robin ()) instance, memory)

(* Fault the first [k] faultable operations, whatever they are. *)
let fault_first k =
  let left = ref k in
  fun ~time:_ ~pid:_ ~op ->
    if Op.faultable op && !left > 0 then begin
      decr left;
      true
    end
    else false

(* --- retry --- *)

let test_backoff_delays () =
  check Alcotest.(list int) "doubling, capped"
    [ 1; 2; 4; 8; 16; 32; 64; 64 ]
    (List.map (fun a -> Retry.backoff_delay ~attempt:a) [ 1; 2; 3; 4; 5; 6; 7; 8 ])

let test_jittered_delay_bounds () =
  let rng = Xoshiro.create 99L in
  (* Walk a long decorrelated chain: every step stays inside the policy
     envelope [1, 64] and inside the decorrelation cap 3*prev (with
     prev clamped up to base, so a zero seed cannot pin the chain). *)
  let prev = ref 0 in
  for _ = 1 to 2_000 do
    let d = Retry.jittered_delay ~rng ~prev:!prev in
    check Alcotest.bool "at least base delay" true (d >= 1);
    check Alcotest.bool "at most max delay" true (d <= 64);
    check Alcotest.bool "within 3x the previous delay" true (d <= 3 * max 1 !prev);
    prev := d
  done;
  (* The chain must actually spread: a degenerate implementation that
     always answers base would pass the bounds above. *)
  let rng = Xoshiro.create 7L in
  let seen = Hashtbl.create 16 in
  let p = ref 1 in
  for _ = 1 to 200 do
    p := Retry.jittered_delay ~rng ~prev:!p;
    Hashtbl.replace seen !p ()
  done;
  check Alcotest.bool "delays spread over the range" true (Hashtbl.length seen >= 8);
  (* Determinism: the same rng seed walks the same chain. *)
  let walk seed =
    let rng = Xoshiro.create seed in
    let p = ref 1 in
    List.init 50 (fun _ ->
        p := Retry.jittered_delay ~rng ~prev:!p;
        !p)
  in
  check Alcotest.(list int) "same seed, same chain" (walk 21L) (walk 21L)

(* A probe plan's TAS gets the retry policy's fault handling
   ([Retry.tas_name_after_fault]). *)
let scan ~first ~count = Plan_exec.program (Plan.linear_scan ~first ~count)

let test_retry_tas_wins_after_faults () =
  let report, memory = run_single (scan ~first:0 ~count:1) ~namespace:1 ~inject:(fault_first 3) in
  check Alcotest.int "eventually wins" 0
    report.Report.assignment.Assignment.names.(0);
  check Alcotest.bool "register really owned" true
    (Renaming_shm.Tas_array.owner (Memory.names memory) 0 = Some 0);
  (* 3 faulted attempts + backoff yields (1+2+4) + winning attempt. *)
  check Alcotest.int "step cost" 11 report.Report.ticks

(* One process running [tas_aux] on auxiliary register 0, named 0 iff
   it won. *)
let run_tas_aux ~inject =
  let program =
    let* won = Retry.tas_aux 0 in
    Program.return (if won then Some 0 else None)
  in
  let memory = Memory.create ~namespace:1 ~aux:1 () in
  let report =
    Executor.run ~inject ~adversary:(Adversary.round_robin ())
      { Executor.memory; programs = [| program |]; label = "test" }
  in
  (report, Renaming_shm.Tas_array.owner (Memory.aux memory) 0)

let test_retry_tas_exhaustion_is_lost () =
  (* Every attempt faults: the TAS must report lost, not claim a win. *)
  let report, owner = run_tas_aux ~inject:(fun ~time:_ ~pid:_ ~op -> Op.faultable op) in
  check Alcotest.int "no win claimed" 0 (Report.named_count report);
  check Alcotest.bool "register untouched" true (owner = None);
  (* 8 faulted attempts + backoff yields (1+2+4+8+16+32+64). *)
  check Alcotest.int "step cost" 135 report.Report.ticks

let test_retry_read_exhaustion_is_set () =
  (* A read whose retries exhaust reports "set" — the safe direction: a
     caller skips the register instead of acting on no information. *)
  let program =
    let* set = Retry.read_aux 0 in
    Program.return (if set then None else Some 0)
  in
  let memory = Memory.create ~namespace:1 ~aux:1 () in
  let report =
    Executor.run
      ~inject:(fun ~time:_ ~pid:_ ~op -> Op.faultable op)
      ~adversary:(Adversary.round_robin ())
      { Executor.memory; programs = [| program |]; label = "test" }
  in
  check Alcotest.int "treated as set, nothing claimed" 0 (Report.named_count report);
  (* 8 faulted attempts + backoff yields (1+2+4+8+16+32+64). *)
  check Alcotest.int "step cost" 135 report.Report.ticks

let test_retry_scan_skips_faulty_register () =
  (* A register whose TAS retries exhaust is skipped as if taken; the
     sweep takes the next free one. *)
  let inject ~time:_ ~pid:_ ~op = match op with Op.Tas_name 0 -> true | _ -> false in
  let report, memory = run_single (scan ~first:0 ~count:2) ~namespace:2 ~inject in
  check Alcotest.int "skips faulty register, takes next" 1
    report.Report.assignment.Assignment.names.(0);
  check Alcotest.bool "faulty register never set" true
    (Renaming_shm.Tas_array.owner (Memory.names memory) 0 = None)

let test_retry_fault_free_cost_matches_plain () =
  (* Zero overhead when nothing faults: same ticks as the plain scan,
     here behind a process that takes register 0 first. *)
  let run program =
    Executor.run ~adversary:(Adversary.round_robin ())
      {
        Executor.memory = Memory.create ~namespace:4 ();
        programs = [| Program.scan_names ~first:0 ~count:2; program |];
        label = "test";
      }
  in
  let r1 = run (Program.scan_names ~first:0 ~count:4) in
  let r2 = run (scan ~first:0 ~count:4) in
  check Alcotest.int "identical step cost" r1.Report.ticks r2.Report.ticks;
  check Alcotest.(array int) "identical result"
    r1.Report.assignment.Assignment.names r2.Report.assignment.Assignment.names

(* --- injectors --- *)

let test_injector_deterministic () =
  let hits rate seed =
    let inj = Injector.bernoulli ~rate ~rng:(Xoshiro.create seed) in
    List.init 200 (fun i -> inj ~time:i ~pid:0 ~op:(Op.Tas_name 0))
  in
  check Alcotest.(list bool) "same seed, same faults" (hits 0.3 7L) (hits 0.3 7L);
  check Alcotest.bool "some faults at rate 0.3" true (List.mem true (hits 0.3 7L));
  check Alcotest.bool "no faults at rate 0" false (List.mem true (hits 0. 7L))

let test_injector_respects_faultable () =
  let inj = Injector.bernoulli ~rate:1.0 ~rng:(Xoshiro.create 7L) in
  check Alcotest.bool "faults tas" true (inj ~time:0 ~pid:0 ~op:(Op.Tas_name 0));
  check Alcotest.bool "never faults yield" false (inj ~time:0 ~pid:0 ~op:Op.Yield);
  check Alcotest.bool "never faults owned-name" false (inj ~time:0 ~pid:0 ~op:(Op.Owned_name 0));
  check Alcotest.bool "never faults tau" false
    (inj ~time:0 ~pid:0 ~op:(Op.Tau_submit { reg = 0; bit = 0 }))

let test_injector_counting () =
  let counted, count = Injector.counting (Injector.bernoulli ~rate:1.0 ~rng:(Xoshiro.create 7L)) in
  ignore (counted ~time:0 ~pid:0 ~op:(Op.Tas_name 0));
  ignore (counted ~time:1 ~pid:0 ~op:Op.Yield);
  ignore (counted ~time:2 ~pid:0 ~op:(Op.Read_name 0));
  check Alcotest.int "two hits counted" 2 (count ())

(* --- crash recovery in the executor --- *)

(* pid 0 wins register 0 then spins on yields so the adversary can crash
   it mid-flight; after recovery the default preamble must re-discover
   the win instead of leaking it. *)
let rec idle k =
  if k = 0 then Program.return () else Program.bind Program.yield (fun () -> idle (k - 1))

let win_then_linger ~spin =
  let* won = Program.tas_name 0 in
  let* () = idle spin in
  Program.return (if won then Some 0 else None)

(* Companion that outlives the crash window (both crash wrappers refuse
   to kill the last runnable process). *)
let linger_then_scan ~spin ~count =
  let* () = idle spin in
  Program.scan_names ~first:0 ~count

let test_recovered_process_keeps_won_name () =
  let memory = Memory.create ~namespace:2 () in
  let instance =
    {
      Executor.memory;
      programs = [| win_then_linger ~spin:6; linger_then_scan ~spin:20 ~count:2 |];
      label = "recovery-test";
    }
  in
  let adversary =
    Adversary.with_crash_recovery ~base:(Adversary.round_robin ())
      ~crashes:[ (4, 0) ] ~recover_after:3
  in
  let report = Executor.run ~adversary instance in
  check Alcotest.(list int) "pid 0 recovered" [ 0 ] report.Report.recovered;
  check Alcotest.(list int) "nobody dead at end" [] report.Report.crashed;
  check Alcotest.int "kept the won name" 0
    report.Report.assignment.Assignment.names.(0);
  check Alcotest.int "scanner got the other" 1
    report.Report.assignment.Assignment.names.(1);
  check Alcotest.bool "sound" true (Report.is_sound report)

let test_permanent_crash_still_reported () =
  let memory = Memory.create ~namespace:2 () in
  let instance =
    {
      Executor.memory;
      programs = [| win_then_linger ~spin:6; linger_then_scan ~spin:20 ~count:2 |];
      label = "crash-test";
    }
  in
  let adversary =
    Adversary.with_crashes ~base:(Adversary.round_robin ()) ~crash_times:[ (4, 0) ]
  in
  let report = Executor.run ~adversary instance in
  check Alcotest.(list int) "pid 0 dead" [ 0 ] report.Report.crashed;
  check Alcotest.(list int) "nobody recovered" [] report.Report.recovered;
  (* The won register stays burnt; the scanner must route around it. *)
  check Alcotest.int "scanner avoids burnt name" 1
    report.Report.assignment.Assignment.names.(1)

let refine_count obs name =
  Option.value ~default:0
    (Renaming_obs.Metrics.find_counter (Renaming_obs.Obs.metrics obs) ("refine/" ^ name))

let test_recovery_under_monitor () =
  (* Same recovery scenario with the monitor attached: no violation. *)
  let memory = Memory.create ~namespace:2 () in
  let instance =
    {
      Executor.memory;
      programs = [| win_then_linger ~spin:6; linger_then_scan ~spin:20 ~count:2 |];
      label = "recovery-monitored";
    }
  in
  let obs = Renaming_obs.Obs.create () in
  let monitor = Monitor.create ~obs ~mode:Monitor.Tas instance in
  let adversary =
    Adversary.with_crash_recovery ~base:(Adversary.round_robin ())
      ~crashes:[ (4, 0) ] ~recover_after:3
  in
  let report = Executor.run ~on_event:(Monitor.hook monitor) ~adversary instance in
  (match Monitor.judge monitor (Directed.Finished report) with
  | Monitor.Passed _ -> ()
  | Monitor.Livelocked _ -> Alcotest.fail "livelocked"
  | Monitor.Failed v -> Alcotest.failf "unexpected violation %s" v.Monitor.kind);
  check Alcotest.int "no violations" 0 (refine_count obs "violations")

(* --- monitor negative tests: seeded violations must be caught --- *)

(* A monitor over [processes] idle processes on a [namespace]-name
   memory, for tests that feed it events by hand. *)
let monitor ?(mode = Monitor.Tas) ~namespace ~processes () =
  Monitor.create ~mode
    {
      Executor.memory = Memory.create ~namespace ();
      programs = Array.make processes (Program.return None);
      label = "synthetic";
    }

let expect_violation name ~kind f =
  match f () with
  | exception Monitor.Violation v -> check Alcotest.string (name ^ ": kind") kind v.Monitor.kind
  | _ -> Alcotest.failf "%s: expected Monitor.Violation" name

let run_monitored m instance =
  Executor.run ~on_event:(Monitor.hook m) ~adversary:(Adversary.round_robin ()) instance

let test_monitor_catches_duplicate_name () =
  (* Mutation: both processes return name 0 (the second one lies).  In
     [Returns] mode a return is the grant, so the spec sees a grant of a
     name another process holds. *)
  let memory = Memory.create ~namespace:4 () in
  let liar =
    let* won = Program.tas_name 0 in
    ignore won;
    Program.return (Some 0)
  in
  let instance = { Executor.memory; programs = [| liar; liar |]; label = "dup-mutation" } in
  let obs = Renaming_obs.Obs.create () in
  let m = Monitor.create ~obs ~mode:Monitor.Returns instance in
  expect_violation "duplicate name" ~kind:"refine:name-held" (fun () -> run_monitored m instance);
  check Alcotest.int "violation recorded" 1 (refine_count obs "violations")

let test_monitor_catches_out_of_range () =
  let memory = Memory.create ~namespace:4 () in
  let instance =
    { Executor.memory; programs = [| Program.return (Some 99) |]; label = "range-mutation" }
  in
  expect_violation "out of range" ~kind:"refine:name-out-of-range" (fun () ->
      run_monitored (Monitor.create ~mode:Monitor.Tas instance) instance)

let test_monitor_catches_unbacked_claim () =
  (* The ownership check: returning a name the process was never
     granted. *)
  let memory = Memory.create ~namespace:4 () in
  let instance =
    { Executor.memory; programs = [| Program.return (Some 2) |]; label = "ownership-mutation" }
  in
  expect_violation "unbacked claim" ~kind:"refine:claim-unbacked" (fun () ->
      run_monitored (Monitor.create ~mode:Monitor.Tas instance) instance)

let test_monitor_catches_step_after_crash () =
  (* Synthetic event feed: activity by a crashed process. *)
  let m = monitor ~namespace:2 ~processes:2 () in
  Monitor.hook m (Executor.Crashed { time = 0; pid = 1 });
  expect_violation "step after crash" ~kind:"step-after-crash" (fun () ->
      Monitor.hook m
        (Executor.Stepped { time = 1; pid = 1; op = Op.Tas_name 0; response = Op.Bool true }))

let test_monitor_catches_recover_of_live () =
  let m = monitor ~namespace:2 ~processes:2 () in
  expect_violation "recover of live pid" ~kind:"recover-of-live" (fun () ->
      Monitor.hook m (Executor.Recovered { time = 0; pid = 0 }))

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_monitor_violation_carries_trace () =
  let m = monitor ~namespace:2 ~processes:2 () in
  Monitor.hook m
    (Executor.Stepped { time = 0; pid = 0; op = Op.Tas_name 0; response = Op.Bool true });
  Monitor.hook m (Executor.Crashed { time = 1; pid = 0 });
  (match Monitor.hook m (Executor.Returned { time = 2; pid = 0; value = Some 0 }) with
  | exception Monitor.Violation { kind; message } ->
    check Alcotest.string "structured kind" "return-while-crashed" kind;
    check Alcotest.bool "message embeds trace excerpt" true (contains message "crash")
  | _ -> Alcotest.fail "expected Monitor.Violation");
  (* A spec rejection carries the same excerpt: in [Returns] mode the
     second return of name 0 is a grant of a held name. *)
  let m = monitor ~mode:Monitor.Returns ~namespace:2 ~processes:2 () in
  Monitor.hook m
    (Executor.Stepped { time = 0; pid = 0; op = Op.Tas_name 0; response = Op.Bool true });
  Monitor.hook m (Executor.Returned { time = 1; pid = 0; value = Some 0 });
  match Monitor.hook m (Executor.Returned { time = 2; pid = 1; value = Some 0 }) with
  | exception Monitor.Violation { kind; message } ->
    check Alcotest.string "spec kind" "refine:name-held" kind;
    check Alcotest.bool "spec message embeds trace excerpt" true
      (contains message "trace excerpt" && contains message "tas-name")
  | _ -> Alcotest.fail "expected Monitor.Violation"

let test_monitor_violation_kinds () =
  (* Every check reports a stable machine-readable kind — the shrinker's
     "same failure" oracle. *)
  let kind_of f =
    match f () with
    | exception Monitor.Violation { kind; _ } -> kind
    | _ -> "no-violation"
  in
  let fresh ?mode () = monitor ?mode ~namespace:2 ~processes:2 () in
  let won m pid name =
    Monitor.hook m
      (Executor.Stepped { time = 0; pid; op = Op.Tas_name name; response = Op.Bool true })
  in
  check Alcotest.string "duplicate name" "refine:name-held"
    (kind_of (fun () ->
         (* In [Returns] mode a return of an unheld name is a grant, and
            the spec refuses it while another process holds the name. *)
         let m = fresh ~mode:Monitor.Returns () in
         won m 0 0;
         Monitor.hook m (Executor.Returned { time = 1; pid = 0; value = Some 0 });
         Monitor.hook m (Executor.Returned { time = 2; pid = 1; value = Some 0 })));
  check Alcotest.string "double-crash" "double-crash"
    (kind_of (fun () ->
         let m = fresh () in
         Monitor.hook m (Executor.Crashed { time = 0; pid = 0 });
         Monitor.hook m (Executor.Crashed { time = 1; pid = 0 })));
  check Alcotest.string "recover-of-live" "recover-of-live"
    (kind_of (fun () ->
         let m = fresh () in
         Monitor.hook m (Executor.Recovered { time = 0; pid = 0 })));
  check Alcotest.string "out-of-range name" "refine:name-out-of-range"
    (kind_of (fun () ->
         let m = fresh () in
         Monitor.hook m (Executor.Returned { time = 0; pid = 0; value = Some 7 })));
  check Alcotest.string "ownership return of a free register" "refine:claim-unbacked"
    (kind_of (fun () ->
         let m = fresh () in
         Monitor.hook m (Executor.Returned { time = 0; pid = 0; value = Some 1 })));
  check Alcotest.string "ownership return of another's name" "refine:claim-unbacked"
    (kind_of (fun () ->
         let m = fresh () in
         won m 0 1;
         Monitor.hook m (Executor.Returned { time = 1; pid = 1; value = Some 1 })));
  check Alcotest.string "ownership return of a won name" "no-violation"
    (kind_of (fun () ->
         let m = fresh () in
         won m 0 1;
         Monitor.hook m (Executor.Returned { time = 1; pid = 0; value = Some 1 })))

(* --- the spec side of the monitor: one target and mode per (name, n),
   clean runs refine, and observing changes nothing --- *)

let test_monitor_mode_resolution () =
  (* A repro names its target by (name, n), and the target declares the
     mode that judges it.  The targets [Replay.find] searches — the
     chaos algorithms and every model-checking and fuzzing roster
     target — name one target per (name, n): an instance both rosters
     run is one shared value, so a repro replays on the same instance,
     under the same mode, whichever checker wrote it. *)
  let module Target = Renaming_faults.Target in
  let rosters =
    List.map (fun e -> e.Renaming_harness.Mcheck_roster.e_target)
      (Renaming_harness.Mcheck_roster.roster ())
    @ List.map (fun t -> t.Renaming_fuzz.Fuzz.fz_target) (Renaming_harness.Fuzz_roster.roster ())
  in
  let sizes = List.sort_uniq compare (List.map (fun (t : Target.t) -> t.n) rosters) in
  let all = List.concat_map (fun n -> Chaos.algorithms ~n) sizes @ rosters in
  let distinct = List.fold_left (fun acc t -> if List.memq t acc then acc else t :: acc) [] all in
  List.iter
    (fun (t : Target.t) ->
      let same = List.filter (fun (u : Target.t) -> u.name = t.name && u.n = t.n) distinct in
      if List.length same <> 1 then
        Alcotest.failf "%s (n=%d) names %d targets" t.name t.n (List.length same))
    distinct;
  let named name = List.filter (fun (t : Target.t) -> t.name = name) in
  check Alcotest.int "both rosters run uniform-probing-n3" 2
    (List.length (named "uniform-probing-n3" rosters));
  check Alcotest.int "as one target" 1 (List.length (named "uniform-probing-n3" distinct));
  let mode =
    Alcotest.testable
      (fun fmt (m : Monitor.mode) ->
        Format.pp_print_string fmt
          (match m with Tas -> "Tas" | Returns -> "Returns" | Announce -> "Announce"))
      ( = )
  in
  let mode_of name n =
    match Renaming_harness.Replay.find ~name ~n with
    | Some t -> t.Target.mode
    | None -> Alcotest.failf "%s (n=%d) does not resolve" name n
  in
  check mode "paper algorithm" Monitor.Tas (mode_of "tight" 48);
  check mode "handoff model" Monitor.Returns (mode_of "lease-handoff-n3" 3);
  check mode "shard mutant" Monitor.Returns (mode_of "mutant-shard-unfenced-handoff" 3);
  check mode "announce model" Monitor.Announce (mode_of "refine-grant-n2" 2);
  check mode "announce mutant" Monitor.Announce (mode_of "mutant-refine-regrant" 2)

let linear_scan ~n =
  Renaming_baselines.Linear_scan.instance { Renaming_baselines.Linear_scan.n; m = n }

let test_monitor_clean_tas_run_refines () =
  let obs = Renaming_obs.Obs.create () in
  let inst = linear_scan ~n:3 in
  let m = Monitor.create ~obs ~mode:Monitor.Tas inst in
  let report = run_monitored m inst in
  check Alcotest.int "all named" 3 (Report.named_count report);
  check Alcotest.int "no violations" 0 (refine_count obs "violations");
  check Alcotest.bool "grants stepped the spec" true
    (refine_count obs "events" - refine_count obs "stutters" >= 3)

let test_monitor_observation_changes_nothing () =
  let bare = Executor.run ~adversary:(Adversary.round_robin ()) (linear_scan ~n:4) in
  let inst = linear_scan ~n:4 in
  let m = Monitor.create ~mode:Monitor.Tas inst in
  check Alcotest.bool "identical report" true (bare = run_monitored m inst)

(* --- satellite 4: soundness property across algorithms, adversaries,
   crash-recovery, seeds --- *)

let algorithm_builders ~n =
  List.map
    (fun (a : Renaming_faults.Target.t) -> (a.name, a.build))
    (Chaos.algorithms ~n)

let test_property_no_duplicates_under_adversity () =
  let adversaries =
    [
      ("adaptive-contention", fun () -> Adversary.adaptive_contention);
      ("colluding", fun () -> Adversary.colluding);
      ( "crash-recovery",
        fun () ->
          Adversary.with_crash_recovery ~base:(Adversary.round_robin ())
            ~crashes:[ (5, 1); (9, 3); (13, 5) ] ~recover_after:6 );
    ]
  in
  List.iter
    (fun (algo_name, build) ->
      List.iter
        (fun (adv_name, make_adv) ->
          Array.iter
            (fun seed ->
              let report =
                Executor.run ~max_ticks:500_000 ~adversary:(make_adv ()) (build ~seed)
              in
              if not (Report.is_sound report) then
                Alcotest.failf "%s under %s seed %Ld: duplicate or out-of-range name" algo_name
                  adv_name seed;
              if Report.is_livelock report then
                Alcotest.failf "%s under %s seed %Ld: livelock" algo_name adv_name seed)
            (Renaming_harness.Seeds.take 3))
        adversaries)
    (algorithm_builders ~n:12)

(* --- campaign --- *)

(* The fast subset of the chaos cross-product: three algorithms, three
   adversaries, recovery and transient faults, small n. *)
let tier1_spec () =
  let keep names name_of xs = List.filter (fun x -> List.mem (name_of x) names) xs in
  let spec = Chaos.spec ~n:20 ~seed_count:2 ~fault_rates:[ 0.05 ] ~max_ticks:200_000 () in
  {
    spec with
    Campaign.algorithms =
      keep
        [ "loose-geometric"; "uniform-probing"; "linear-scan" ]
        (fun (a : Renaming_faults.Target.t) -> a.name)
        spec.Campaign.algorithms;
    adversaries =
      keep
        [ "round-robin"; "adaptive-contention"; "colluding" ]
        (fun a -> a.Campaign.adv_name)
        spec.Campaign.adversaries;
    patterns =
      keep [ "crash-recovery"; "burst-recovery" ] (fun p -> p.Campaign.pat_name) spec.Campaign.patterns;
  }

let test_campaign_tier1_zero_violations () =
  let summary = Campaign.run (tier1_spec ()) in
  check Alcotest.int "zero violations" 0 summary.Campaign.total_violations;
  check Alcotest.int "zero livelocks" 0 summary.Campaign.total_livelocks;
  check Alcotest.bool "faults were injected" true (summary.Campaign.total_injected > 0);
  check Alcotest.bool "recoveries happened" true
    (List.exists (fun c -> c.Campaign.c_recovered > 0) summary.Campaign.cells)

let test_campaign_deterministic () =
  let spec =
    { (tier1_spec ()) with Campaign.fault_rates = [ 0.1 ]; seeds = Renaming_harness.Seeds.take 1 }
  in
  let s1 = Campaign.run spec and s2 = Campaign.run spec in
  let doc s = Json.to_document (Campaign.to_json s) in
  check Alcotest.string "identical json" (doc s1) (doc s2)

let small_campaign () =
  Campaign.run
    { (tier1_spec ()) with Campaign.fault_rates = [ 0.05 ]; seeds = Renaming_harness.Seeds.take 1 }

let parse_document json =
  match Json.of_string (Json.to_document json) with Ok doc -> doc | Error e -> Alcotest.fail e

let test_campaign_json_shape () =
  let summary = small_campaign () in
  let doc = parse_document (Campaign.to_json summary) in
  check Alcotest.(option int) "has totals" (Some 0)
    (Option.bind (Json.member "total_violations" doc) Json.to_int);
  let cells = Option.value ~default:[] (Option.bind (Json.member "cells" doc) Json.to_items) in
  check Alcotest.int "one object per cell" (List.length summary.Campaign.cells) (List.length cells);
  List.iter
    (fun cell ->
      check Alcotest.bool "has degradation" true
        (match Json.member "degradation" cell with Some (Json.Float _) -> true | _ -> false);
      check Alcotest.bool "has repros array" true
        (Option.bind (Json.member "repros" cell) Json.to_items <> None))
    cells

(* A violation message is free text: a newline and a quote in it must
   come back from the file as they went in. *)
let test_campaign_json_round_trip () =
  let message = "line one\nthen \"quoted\" \\ two" in
  let summary = small_campaign () in
  let summary =
    {
      summary with
      Campaign.cells =
        List.map (fun c -> { c with Campaign.c_messages = [ message ] }) summary.Campaign.cells;
    }
  in
  let json = Campaign.to_json summary in
  let doc = parse_document json in
  check Alcotest.bool "parses back to the same tree" true (doc = json);
  List.iter
    (fun cell ->
      check Alcotest.(option (list string)) "message" (Some [ message ])
        (Option.map (List.filter_map Json.to_str)
           (Option.bind (Json.member "messages" cell) Json.to_items)))
    (Option.value ~default:[] (Option.bind (Json.member "cells" doc) Json.to_items))

(* --- auto-shrinking of campaign violations --- *)

module Shrink = Renaming_faults.Shrink

(* Deliberately broken double-claim: check-then-act without trusting the
   TAS result.  Correct when run solo; two interleaved reads both see
   the register free and both claim name 0. *)
let racy_claim =
  let* set = Program.read_name 0 in
  if set then Program.return None
  else
    let* _won = Program.tas_name 0 in
    Program.return (Some 0)

let broken_algorithm =
  {
    Renaming_faults.Target.name = "broken-double-claim";
    n = 2;
    (* the second return is a grant of the name the first process holds *)
    mode = Monitor.Returns;
    build =
      (fun ~seed:_ ->
        {
          Executor.memory = Memory.create ~namespace:2 ();
          programs = [| racy_claim; racy_claim |];
          label = "broken-double-claim";
        });
  }

let broken_spec =
  {
    Campaign.algorithms = [ broken_algorithm ];
    adversaries =
      [ { Campaign.adv_name = "round-robin"; make_adversary = (fun ~seed:_ -> Adversary.round_robin ()) } ];
    patterns = [ Campaign.no_crashes ];
    fault_rates = [ 0. ];
    seeds = Renaming_harness.Seeds.take 1;
    max_ticks = 1_000;
  }

let test_campaign_autoshrinks_violations () =
  (* Round-robin interleaves the two reads, so the campaign must catch
     the duplicate claim and hand a 1-minimal repro back. *)
  let summary = Campaign.run broken_spec in
  check Alcotest.int "violation detected" 1 summary.Campaign.total_violations;
  match List.concat_map (fun c -> c.Campaign.c_repros) summary.Campaign.cells with
  | [ repro ] ->
    check Alcotest.string "kind" "refine:name-held" repro.Shrink.rp_kind;
    (* 1-minimal: one process reads, then the other is scheduled before
       the first TAS lands.  Two choices, no more. *)
    check Alcotest.int "minimal repro has two choices" 2 (List.length repro.Shrink.rp_choices);
    (* The artifact replays deterministically to the same violation. *)
    let input =
      {
        Shrink.target = broken_algorithm;
        seed = repro.Shrink.rp_seed;
        choices = repro.Shrink.rp_choices;
        max_ticks = 1_000;
        tau_cadence = 1;
      }
    in
    let replay () =
      match Shrink.execute input repro.Shrink.rp_choices with
      | _, Some f -> f.Shrink.f_kind
      | _, None -> "no-failure"
    in
    check Alcotest.string "replays to the violation" "refine:name-held" (replay ());
    check Alcotest.string "replay is deterministic" (replay ()) (replay ())
  | repros -> Alcotest.failf "expected exactly one repro, got %d" (List.length repros)

let test_shrink_none_when_input_passes () =
  let input =
    {
      Shrink.target =
        {
          Renaming_faults.Target.name = "clean";
          n = 2;
          mode = Monitor.Tas;
          build =
            (fun ~seed:_ ->
              {
                Executor.memory = Memory.create ~namespace:2 ();
                programs =
                  [| Program.scan_names ~first:0 ~count:2; Program.scan_names ~first:0 ~count:2 |];
                label = "clean";
              });
        };
      seed = 0L;
      choices = [ Directed.Step 0; Directed.Step 1 ];
      max_ticks = 1_000;
      tau_cadence = 1;
    }
  in
  check Alcotest.bool "no failure, no result" true (Shrink.shrink input = None)

let test_repro_roundtrip () =
  let repro =
    {
      Shrink.rp_algorithm = "uniform-probing-n3";
      rp_n = 3;
      rp_seed = 0x5EED_2015L;
      rp_max_ticks = 50_000;
      rp_tau_cadence = 2;
      rp_kind = "refine:name-held";
      rp_choices = [ Directed.Step 0; Directed.Fault 2; Directed.Crash 1; Directed.Recover 1 ];
    }
  in
  match Shrink.repro_of_string (Shrink.repro_to_string repro) with
  | Ok r ->
    check Alcotest.string "algorithm" repro.Shrink.rp_algorithm r.Shrink.rp_algorithm;
    check Alcotest.int "n" repro.Shrink.rp_n r.Shrink.rp_n;
    check Alcotest.bool "seed" true (Int64.equal repro.Shrink.rp_seed r.Shrink.rp_seed);
    check Alcotest.int "max-ticks" repro.Shrink.rp_max_ticks r.Shrink.rp_max_ticks;
    check Alcotest.int "tau-cadence" repro.Shrink.rp_tau_cadence r.Shrink.rp_tau_cadence;
    check Alcotest.string "kind" repro.Shrink.rp_kind r.Shrink.rp_kind;
    check Alcotest.bool "choices" true (repro.Shrink.rp_choices = r.Shrink.rp_choices)
  | Error e -> Alcotest.failf "round-trip failed: %s" e

let test_repro_rejects_garbage () =
  let parses text = Result.is_ok (Shrink.repro_of_string text) in
  let artifact ?(cadence = "tau-cadence: 1\n") ?(format = "trace-format: condensed\n")
      ?(trace = "S0--P1\n") () =
    "algorithm: x\nn: 2\nseed: 1\nmax-ticks: 10\n" ^ cadence ^ "kind: k\n" ^ format ^ "trace:\n"
    ^ trace
  in
  check Alcotest.bool "the well-formed artifact parses" true (parses (artifact ()));
  check Alcotest.bool "no trace section" false (parses "algorithm: x\nn: 2\n");
  check Alcotest.bool "no tau-cadence header" false (parses (artifact ~cadence:"" ()));
  check Alcotest.bool "no trace-format header" false (parses (artifact ~format:"" ()));
  check Alcotest.bool "the one-choice-per-line format" false
    (parses (artifact ~format:"trace-format: choices\n" ~trace:"step 0\n" ()));
  check Alcotest.bool "unknown trace format" false
    (parses (artifact ~format:"trace-format: interpretive-dance\n" ()));
  check Alcotest.bool "bad condensed segment" false (parses (artifact ~trace:"T3\n" ()))

let test_repro_condensed_roundtrip () =
  (* The condensed body renders runs, faults, crashes and recoveries,
     and must parse back to the identical decision list. *)
  let repro =
    {
      Shrink.rp_algorithm = "uniform-probing-n3";
      rp_n = 3;
      rp_seed = 7L;
      rp_max_ticks = 50_000;
      rp_tau_cadence = 1;
      rp_kind = "refine:name-held";
      rp_choices =
        [
          Directed.Step 0; Directed.Step 0; Directed.Step 1; Directed.Fault 1;
          Directed.Crash 0; Directed.Recover 0; Directed.Step 1;
        ];
    }
  in
  let text = Shrink.repro_to_string repro in
  check Alcotest.bool "declares the format" true
    (let rec mem = function
       | [] -> false
       | l :: rest -> String.trim l = "trace-format: condensed" || mem rest
     in
     mem (String.split_on_char '\n' text));
  match Shrink.repro_of_string text with
  | Ok r ->
    check Alcotest.bool "choices identical" true (r.Shrink.rp_choices = repro.Shrink.rp_choices)
  | Error e -> Alcotest.failf "condensed round-trip failed: %s" e

(* A pre-existing artifact from results/repros/, embedded verbatim: the
   shard-handoff mutant's shrunk counterexample as the fuzzer writes it.
   It must parse, replay to the same violation against the
   roster-rebuilt instance, and serialise back to the same bytes. *)
let preexisting_artifact =
  "algorithm: mutant-shard-unfenced-handoff\n\
   n: 3\n\
   seed: 1342224629192912732\n\
   max-ticks: 50000\n\
   tau-cadence: 1\n\
   kind: refine:name-held\n\
   trace-format: condensed\n\
   trace:\n\
   S1x5--P2\n"

let test_repro_preexisting_artifact_replays () =
  match Shrink.repro_of_string preexisting_artifact with
  | Error e -> Alcotest.failf "pre-existing artifact rejected: %s" e
  | Ok r -> (
    check Alcotest.string "serialises back to the same bytes" preexisting_artifact
      (Shrink.repro_to_string r);
    match Renaming_harness.Replay.find ~name:r.Shrink.rp_algorithm ~n:r.Shrink.rp_n with
    | None -> Alcotest.failf "roster cannot rebuild %s" r.Shrink.rp_algorithm
    | Some target -> (
      let input =
        {
          Shrink.target;
          seed = r.Shrink.rp_seed;
          choices = r.Shrink.rp_choices;
          max_ticks = r.Shrink.rp_max_ticks;
          tau_cadence = r.Shrink.rp_tau_cadence;
        }
      in
      match Shrink.execute input r.Shrink.rp_choices with
      | _, Some f ->
        check Alcotest.string "replays to the same kind" "refine:name-held" f.Shrink.f_kind
      | _, None -> Alcotest.fail "pre-existing artifact no longer reproduces"))

let tests =
  [
    ( "faults.retry",
      [
        Alcotest.test_case "backoff delays" `Quick test_backoff_delays;
        Alcotest.test_case "jittered delay bounds" `Quick test_jittered_delay_bounds;
        Alcotest.test_case "tas wins after faults" `Quick test_retry_tas_wins_after_faults;
        Alcotest.test_case "tas exhaustion is lost" `Quick test_retry_tas_exhaustion_is_lost;
        Alcotest.test_case "read exhaustion is set" `Quick test_retry_read_exhaustion_is_set;
        Alcotest.test_case "scan skips faulty register" `Quick
          test_retry_scan_skips_faulty_register;
        Alcotest.test_case "fault-free cost matches plain" `Quick
          test_retry_fault_free_cost_matches_plain;
      ] );
    ( "faults.injector",
      [
        Alcotest.test_case "deterministic" `Quick test_injector_deterministic;
        Alcotest.test_case "respects faultable" `Quick test_injector_respects_faultable;
        Alcotest.test_case "counting" `Quick test_injector_counting;
      ] );
    ( "faults.recovery",
      [
        Alcotest.test_case "recovered process keeps won name" `Quick
          test_recovered_process_keeps_won_name;
        Alcotest.test_case "permanent crash reported" `Quick test_permanent_crash_still_reported;
        Alcotest.test_case "recovery under monitor" `Quick test_recovery_under_monitor;
      ] );
    ( "faults.monitor",
      [
        Alcotest.test_case "catches duplicate name" `Quick test_monitor_catches_duplicate_name;
        Alcotest.test_case "catches out-of-range name" `Quick test_monitor_catches_out_of_range;
        Alcotest.test_case "catches unbacked claim" `Quick test_monitor_catches_unbacked_claim;
        Alcotest.test_case "catches step after crash" `Quick test_monitor_catches_step_after_crash;
        Alcotest.test_case "catches recover of live pid" `Quick
          test_monitor_catches_recover_of_live;
        Alcotest.test_case "violation carries trace" `Quick test_monitor_violation_carries_trace;
        Alcotest.test_case "violation kinds are stable" `Quick test_monitor_violation_kinds;
        Alcotest.test_case "mode resolution" `Quick test_monitor_mode_resolution;
        Alcotest.test_case "clean tas run refines" `Quick test_monitor_clean_tas_run_refines;
        Alcotest.test_case "observation changes nothing" `Quick
          test_monitor_observation_changes_nothing;
      ] );
    ( "faults.property",
      [
        Alcotest.test_case "no duplicates under adversity" `Slow
          test_property_no_duplicates_under_adversity;
      ] );
    ( "faults.campaign",
      [
        Alcotest.test_case "tier1 campaign zero violations" `Slow
          test_campaign_tier1_zero_violations;
        Alcotest.test_case "deterministic" `Quick test_campaign_deterministic;
        Alcotest.test_case "json shape" `Quick test_campaign_json_shape;
        Alcotest.test_case "json round-trip" `Quick test_campaign_json_round_trip;
      ] );
    ( "faults.shrink",
      [
        Alcotest.test_case "campaign auto-shrinks violations" `Quick
          test_campaign_autoshrinks_violations;
        Alcotest.test_case "clean input yields no result" `Quick test_shrink_none_when_input_passes;
        Alcotest.test_case "repro round-trips" `Quick test_repro_roundtrip;
        Alcotest.test_case "repro rejects garbage" `Quick test_repro_rejects_garbage;
        Alcotest.test_case "condensed trace round-trips" `Quick test_repro_condensed_roundtrip;
        Alcotest.test_case "pre-existing artifact replays" `Quick
          test_repro_preexisting_artifact_replays;
      ] );
  ]
