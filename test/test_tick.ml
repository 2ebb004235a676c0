(* The simulator tick: pinned schedules and its allocation floor.

   The pins fix what [Executor.run] schedules for the three algorithms
   the end-to-end benchmark's [oneshot] workload runs, plus one
   crash-recovery and one uniformly random schedule, so a rewrite of the
   tick must reproduce every step.  Each summary gives the executed
   ticks, the ledger total, the step complexity, the named count and a
   digest of the assignment. *)

module Executor = Renaming_sched.Executor
module Adversary = Renaming_sched.Adversary
module Report = Renaming_sched.Report
module Ledger = Renaming_shm.Step_ledger
module Params = Renaming_core.Params
module Tight = Renaming_core.Tight
module Geometric = Renaming_core.Loose_geometric
module Combined = Renaming_core.Combined
module Adaptive = Renaming_core.Adaptive
module Longlived = Renaming_longlived.Longlived
module Stream = Renaming_rng.Stream
module Summary = Renaming_stats.Summary
module Obs = Renaming_obs.Obs

let check = Alcotest.check

let summary (r : Report.t) =
  let names =
    String.concat ","
      (Array.to_list
         (Array.map
            (function -1 -> "-" | v -> string_of_int v)
            r.Report.assignment.Renaming_shm.Assignment.names))
  in
  Printf.sprintf "ticks=%d total=%d max=%d named=%d crashed=%d recovered=%d %s" r.Report.ticks
    (Ledger.total r.Report.ledger) (Report.max_steps r) (Report.named_count r)
    (List.length r.Report.crashed) (List.length r.Report.recovered)
    (Digest.to_hex (Digest.string names))

let tight_params = Params.make ~policy:Params.Mass_conserving ~n:256 ()
let geo = { Geometric.n = 1024; ell = 2 }
let longlived = Longlived.make_config ~sessions:256 ~rounds:8 ()

let pin ?(extra = "") label expected report =
  check Alcotest.bool (label ^ ": completed and sound") true
    (report.Report.outcome = Report.Completed && Report.is_sound report);
  check Alcotest.string label expected (summary report ^ extra)

(* Longlived sessions return [None] after their last release, so its
   pin also covers the session statistics, probe counts in order. *)
let longlived_stats stats =
  let s = !stats in
  let probes =
    Summary.samples s.Longlived.probe_summary
    |> Array.map string_of_float |> Array.to_list |> String.concat ","
  in
  Printf.sprintf " acquires=%d releases=%d max_held=%d probes=%s" s.Longlived.acquires
    s.Longlived.releases s.Longlived.max_held (Digest.to_hex (Digest.string probes))

let run_longlived ~seed =
  let stats = Longlived.create_stats () in
  let report = Longlived.run ~stats longlived ~seed in
  (report, longlived_stats stats)

let test_pinned_round_robin () =
  List.iter
    (fun (seed, tight, loose, long) ->
      let s = Int64.to_string seed in
      pin ("tight seed " ^ s) tight (Tight.run ~params:tight_params ~seed ());
      pin ("loose-geometric seed " ^ s) loose (Geometric.run geo ~seed);
      let report, extra = run_longlived ~seed in
      pin ~extra ("longlived seed " ^ s) long report)
    [
      ( 1L,
        "ticks=9328 total=9328 max=86 named=256 crashed=0 recovered=0 \
         1defc2837e1204b4fdaf619132f51679",
        "ticks=3617 total=3617 max=30 named=987 crashed=0 recovered=0 \
         7cfc772f1e7c188a65cbf13d7ec41702",
        "ticks=7227 total=7227 max=37 named=0 crashed=0 recovered=0 \
         5b56e8eb4f8a1130ffe8069913013ea7 acquires=2048 releases=2048 max_held=181 \
         probes=b7231ade8f93db4d834789facdfc2d75" );
      ( 7L,
        "ticks=9328 total=9328 max=86 named=256 crashed=0 recovered=0 \
         67ffb647cbde944d734521d03b8c9f20",
        "ticks=3563 total=3563 max=30 named=1000 crashed=0 recovered=0 \
         2a90e7314b3b924de45b45b87799cd83",
        "ticks=7275 total=7275 max=35 named=0 crashed=0 recovered=0 \
         5b56e8eb4f8a1130ffe8069913013ea7 acquires=2048 releases=2048 max_held=186 \
         probes=918e9f316a7f4aae8c52c9fecc9c7d32" );
    ]

(* Crash-recovery: crashed Tight processes may hold a device bit or a
   pending τ-poll, and restart behind the recovery preamble.  Crashed
   plan-built processes (Lemma 6, and Corollary 7's concatenated plan)
   restart at their first probe and go on drawing from their stream. *)
let test_pinned_crash_recovery () =
  let crashes = List.init 12 (fun k -> ((k * 37) + 5, (k * 11) mod 64)) in
  let adversary =
    Adversary.with_crash_recovery ~base:(Adversary.round_robin ()) ~crashes ~recover_after:40
  in
  let params = Params.make ~policy:Params.Mass_conserving ~n:64 () in
  pin "tight crash-recovery"
    "ticks=1857 total=1857 max=118 named=64 crashed=0 recovered=11 \
     80f3987de9432eae98f9c9e102ecc2ec"
    (Tight.run ~adversary ~params ~seed:3L ());
  let crashes = List.init 32 (fun k -> (64 + (2 * k), ((k * 2) + 1) mod 64)) in
  let adversary () =
    Adversary.with_crash_recovery ~base:(Adversary.round_robin ()) ~crashes ~recover_after:20
  in
  pin "loose-geometric crash-recovery"
    "ticks=727 total=727 max=97 named=61 crashed=0 recovered=7 \
     bf29f84c34fac4fdd54e37ca0bfbbdd0"
    (Geometric.run ~adversary:(adversary ()) { Geometric.n = 64; ell = 2 } ~seed:3L);
  pin "cor7 crash-recovery"
    "ticks=835 total=835 max=113 named=64 crashed=0 recovered=7 \
     7e45ba95cff1dd76b0223679e28450f5"
    (Combined.run ~adversary:(adversary ())
       { Combined.n = 64; variant = Combined.Geometric { ell = 2 } }
       ~seed:3L);
  (* A crashed Longlived session restarts at its first probe with every
     round ahead of it, unless the preamble finds a name it still holds,
     which it then keeps. *)
  let crashes = List.init 16 (fun k -> (20 + (13 * k), ((k * 7) + 3) mod 32)) in
  let adversary =
    Adversary.with_crash_recovery ~base:(Adversary.round_robin ()) ~crashes ~recover_after:25
  in
  let stats = Longlived.create_stats () in
  let report =
    Longlived.run ~stats ~adversary (Longlived.make_config ~sessions:32 ~rounds:4 ()) ~seed:3L
  in
  pin ~extra:(longlived_stats stats) "longlived crash-recovery"
    "ticks=918 total=918 max=66 named=12 crashed=0 recovered=16 \
     89451c7393021b74b14d75be82dca313 acquires=102 releases=90 max_held=19 \
     probes=e9a1c7d34c90274f5cfe09235b8e46d6"
    report

let test_pinned_uniform () =
  let adversary = Adversary.uniform (Stream.fork_named (Stream.create 11L) ~name:"adversary") in
  pin "loose-geometric uniform"
    "ticks=822 total=822 max=30 named=249 crashed=0 recovered=0 \
     ae8df22e3c99dd99c290898598071963"
    (Geometric.run ~adversary { Geometric.n = 256; ell = 2 } ~seed:5L)

(* ------------------------------------------------------------------ *)
(* The tick's allocation floor.                                        *)

module Memory = Renaming_sched.Memory
module Op = Renaming_sched.Op
module Tau_register = Renaming_device.Tau_register

let minor_words = Test_service.minor_words

let test_memory_apply_allocates_nothing () =
  let tau = Tau_register.create ~tau:2 ~width:4 () in
  let memory = Memory.create ~namespace:8 ~taus:[| tau |] ~processes:1 () in
  ignore (Memory.apply memory ~pid:0 (Op.Tau_submit { reg = 0; bit = 1 }));
  Memory.tick_taus memory;
  List.iter
    (fun op ->
      check Alcotest.int
        (Format.asprintf "%a allocates no minor words" Op.pp op)
        0
        (minor_words ~calls:1000 (fun () -> Memory.apply memory ~pid:0 op)))
    [ Op.Tas_name 3; Op.Read_name 3; Op.Read_name 5; Op.Tau_poll 0 ]

(* With no listener attached a tick costs the program's own allocation
   plus the adversary's decision.  Each process of the five is one
   mutable record with one continuation, built with the instance, so a
   step builds only its operation and its [Step]: a [Tas_name] (2 words)
   and a [Step] (3 words), and the round robin's [Schedule] (2 words).
   Tight's τ-request also builds its [Tau_submit] and one [Tau_poll]
   per round, and a process's last step its [Some name]; its verdict is
   an [int] in the memory's answers, so the register costs nothing.  Each
   bound is the measured words per tick at seed 1 plus a small margin:
   Tight 7.6, Loose_geometric 6.7, Longlived 7.2, Adaptive (k = 256) 7.1
   and Corollary 7 (n = 1024) 6.7.  Adaptive and Corollary 7 are probe
   plans run by [Plan_exec], like Loose_geometric. *)
let check_tick_allocation ?obs label bound inst =
  let before = Gc.minor_words () in
  let report = Executor.run ?obs ~adversary:(Adversary.round_robin ()) inst in
  let per_tick = (Gc.minor_words () -. before) /. float_of_int report.Report.ticks in
  check Alcotest.bool
    (Printf.sprintf "%s: %.1f words per tick, at most %.0f" label per_tick bound)
    true (per_tick <= bound)

let tight_words_per_tick_bound = 10.
let geometric_words_per_tick_bound = 10.
let longlived_words_per_tick_bound = 10.
let adaptive_words_per_tick_bound = 10.
let cor7_words_per_tick_bound = 10.

(* Telemetry's enabled cost: the same Tight and Loose_geometric instances
   built and run with a live [Obs], which records every step's counters,
   histogram samples and ring event.  Measured at seed 1: Tight 51.3 and
   Loose_geometric 50.5 words per tick. *)
let tight_obs_words_per_tick_bound = 55.
let geometric_obs_words_per_tick_bound = 55.

let test_tight_tick_allocation () =
  check_tick_allocation "tight" tight_words_per_tick_bound
    (Tight.instance ~params:tight_params ~stream:(Stream.create 1L) ());
  let obs = Obs.create () in
  check_tick_allocation ~obs "tight with telemetry" tight_obs_words_per_tick_bound
    (Tight.instance ~obs ~params:tight_params ~stream:(Stream.create 1L) ())

let test_geometric_tick_allocation () =
  check_tick_allocation "loose-geometric" geometric_words_per_tick_bound
    (Geometric.instance geo ~stream:(Stream.create 1L));
  let obs = Obs.create () in
  check_tick_allocation ~obs "loose-geometric with telemetry" geometric_obs_words_per_tick_bound
    (Geometric.instance ~obs geo ~stream:(Stream.create 1L))

let test_adaptive_tick_allocation () =
  check_tick_allocation "adaptive" adaptive_words_per_tick_bound
    (Adaptive.instance (Adaptive.make_config ~k:256 ()) ~stream:(Stream.create 1L))

let test_cor7_tick_allocation () =
  check_tick_allocation "cor7" cor7_words_per_tick_bound
    (Combined.instance
       { Combined.n = 1024; variant = Combined.Geometric { ell = 2 } }
       ~stream:(Stream.create 1L))

let test_longlived_tick_allocation () =
  check_tick_allocation "longlived" longlived_words_per_tick_bound
    (Longlived.instance ~stats:(Longlived.create_stats ()) longlived ~stream:(Stream.create 1L))

(* An instance's program array starts from a static [Done None]:
   [Array.init] over more than 256 processes starts from its first,
   young, program, and the runtime then runs a minor collection first.
   The build starts on an empty minor heap and at the start of a major
   cycle, because the end of a major cycle empties the minor heap too. *)
let test_instance_build_runs_no_minor_collection () =
  Gc.full_major ();
  let before = (Gc.quick_stat ()).Gc.minor_collections in
  let inst = Geometric.instance geo ~stream:(Stream.create 1L) in
  let collections = (Gc.quick_stat ()).Gc.minor_collections - before in
  check Alcotest.int "1024 programs" 1024 (Array.length inst.Executor.programs);
  check Alcotest.int "minor collections during the build" 0 collections

(* A τ-request costs the program its [Step]s, not the register: queueing
   one and running its device cycle allocate nothing once the queue has
   grown, and a device tick with no queued request does no work. *)
let test_tau_cycle_allocates_nothing () =
  let tau = Tau_register.create ~tau:2 ~width:4 () in
  let memory = Memory.create ~namespace:8 ~taus:[| tau |] ~processes:1 () in
  let submit = Op.Tau_submit { reg = 0; bit = 1 } in
  let submit_and_tick () =
    ignore (Memory.apply memory ~pid:0 submit);
    Memory.tick_taus memory
  in
  submit_and_tick ();
  check Alcotest.int "tau submit + tick_taus allocates no minor words" 0
    (minor_words ~calls:1000 submit_and_tick);
  check Alcotest.int "idle tick_taus allocates no minor words" 0
    (minor_words ~calls:1000 (fun () -> Memory.tick_taus memory))

let tests =
  [
    ( "tick",
      [
        Alcotest.test_case "pinned: round-robin oneshot set" `Quick test_pinned_round_robin;
        Alcotest.test_case "pinned: crash-recovery" `Quick test_pinned_crash_recovery;
        Alcotest.test_case "pinned: uniform" `Quick test_pinned_uniform;
        Alcotest.test_case "memory apply allocates nothing" `Quick
          test_memory_apply_allocates_nothing;
        Alcotest.test_case "tau cycle allocates nothing" `Quick test_tau_cycle_allocates_nothing;
        Alcotest.test_case "tight tick allocation" `Quick test_tight_tick_allocation;
        Alcotest.test_case "loose-geometric tick allocation" `Quick test_geometric_tick_allocation;
        Alcotest.test_case "longlived tick allocation" `Quick test_longlived_tick_allocation;
        Alcotest.test_case "adaptive tick allocation" `Quick test_adaptive_tick_allocation;
        Alcotest.test_case "cor7 tick allocation" `Quick test_cor7_tick_allocation;
        Alcotest.test_case "instance build runs no minor collection" `Quick
          test_instance_build_runs_no_minor_collection;
      ] );
  ]
