(* Tests for the paper's algorithms: parameter schedules, tight renaming
   (Theorem 5), the loose lemmas, the backup phase and the corollaries. *)

module Mathx = Renaming_plan.Mathx
module Plan = Renaming_plan.Plan
module Params = Renaming_core.Params
module Tight = Renaming_core.Tight
module Geometric = Renaming_core.Loose_geometric
module Clustered = Renaming_core.Loose_clustered
module Combined = Renaming_core.Combined
module Program = Renaming_sched.Program
module Plan_exec = Renaming_sched.Plan_exec
module Memory = Renaming_sched.Memory
module Executor = Renaming_sched.Executor
module Adversary = Renaming_sched.Adversary
module Report = Renaming_sched.Report
module Stream = Renaming_rng.Stream

let check = Alcotest.check

(* ---------- Mathx ---------- *)

let test_log2 () =
  check Alcotest.int "ceil 1024" 10 (Mathx.log2_ceil 1024);
  check Alcotest.int "ceil 1025" 11 (Mathx.log2_ceil 1025);
  check Alcotest.int "ceil 1" 0 (Mathx.log2_ceil 1)

let test_loglog () =
  check Alcotest.int "loglog 65536" 4 (Mathx.loglog2_ceil 65536);
  check Alcotest.int "loglog 4096" 4 (Mathx.loglog2_ceil 4096);
  check Alcotest.int "loglog 4" 1 (Mathx.loglog2_ceil 4);
  check Alcotest.int "logloglog 65536" 2 (Mathx.logloglog2_ceil 65536)

let test_pow () =
  check Alcotest.int "2^10" 1024 (Mathx.pow_int 2 10);
  check Alcotest.int "x^0" 1 (Mathx.pow_int 7 0)

(* ---------- Params ---------- *)

let test_params_mass_conserving_geometry () =
  let p = Params.make ~policy:Params.Mass_conserving ~n:1024 () in
  check Alcotest.int "tau = log n" 10 p.Params.tau;
  check Alcotest.int "width = 2 log n" 20 p.Params.width;
  (* Clusters plus reserve must cover exactly the namespace. *)
  check Alcotest.int "coverage + reserve = n" 1024
    (Params.cluster_name_coverage p + Params.reserve_size p);
  check Alcotest.bool "reserve is small" true (Params.reserve_size p <= 8 * p.Params.log_n);
  (* tau register slices are disjoint and within [0, reserve_base). *)
  let geometry = Params.tau_geometry p in
  Array.iteri
    (fun id (base, tau) ->
      check Alcotest.int (Printf.sprintf "slice %d base" id) (id * p.Params.tau) base;
      check Alcotest.int "slice size" p.Params.tau tau;
      check Alcotest.bool "below reserve" true (base + tau <= p.Params.reserve_base))
    geometry

let test_params_literal_matches_definition2 () =
  let n = 4096 in
  let p = Params.make ~policy:Params.Paper_literal ~n () in
  let c = p.Params.c and log_n = p.Params.log_n in
  Array.iteri
    (fun i round ->
      let expected = n / (2 * Mathx.pow_int (2 * c) (i + 1) * log_n) in
      check Alcotest.int (Printf.sprintf "b_%d" (i + 1)) expected round.Params.blocks)
    p.Params.rounds

let test_params_literal_coverage_gap () =
  (* The DESIGN.md sec. 3 finding: literal coverage ~ n/(2(2c-1)). *)
  let n = 65536 in
  let p = Params.make ~policy:Params.Paper_literal ~n () in
  let c = p.Params.c in
  let predicted = float_of_int n /. float_of_int (2 * ((2 * c) - 1)) in
  let actual = float_of_int (Params.cluster_name_coverage p) in
  check Alcotest.bool "coverage near prediction" true
    (Float.abs (actual -. predicted) /. predicted < 0.35);
  check Alcotest.bool "most names in reserve" true
    (Params.reserve_size p > n / 2)

let test_params_rounds_monotone () =
  let p = Params.make ~policy:Params.Mass_conserving ~n:2048 () in
  Array.iteri
    (fun i round ->
      check Alcotest.int "index" (i + 1) round.Params.index;
      if i > 0 then
        check Alcotest.bool "blocks non-increasing" true
          (round.Params.blocks <= p.Params.rounds.(i - 1).Params.blocks))
    p.Params.rounds

let test_params_validation () =
  Alcotest.check_raises "n too small" (Invalid_argument "Params.make: n must be >= 8") (fun () ->
      ignore (Params.make ~policy:Params.Mass_conserving ~n:4 ()));
  Alcotest.check_raises "bad c" (Invalid_argument "Params.make: c must be >= 1") (fun () ->
      ignore (Params.make ~c:0 ~policy:Params.Mass_conserving ~n:64 ()))

(* ---------- Tight ---------- *)

let run_tight ?adversary ?instr ~policy ~n ~seed () =
  let params = Params.make ~policy ~n () in
  Tight.run ?adversary ?instr ~params ~seed ()

let test_tight_complete_and_sound () =
  List.iter
    (fun n ->
      let report = run_tight ~policy:Params.Mass_conserving ~n ~seed:1L () in
      check Alcotest.bool (Printf.sprintf "sound n=%d" n) true (Report.is_sound report);
      check Alcotest.int (Printf.sprintf "complete n=%d" n) n (Report.named_count report))
    [ 8; 16; 64; 256; 1024 ]

let test_tight_literal_complete () =
  let report = run_tight ~policy:Params.Paper_literal ~n:512 ~seed:2L () in
  check Alcotest.bool "sound" true (Report.is_sound report);
  check Alcotest.int "complete" 512 (Report.named_count report)

let test_tight_namespace_exactly_n () =
  let report = run_tight ~policy:Params.Mass_conserving ~n:256 ~seed:3L () in
  check Alcotest.int "namespace" 256
    report.Report.assignment.Renaming_shm.Assignment.namespace;
  (* Every name in [0, n) is used exactly once. *)
  let names =
    Array.to_list report.Report.assignment.Renaming_shm.Assignment.names
    |> List.filter (( <> ) (-1)) |> List.sort compare
  in
  check Alcotest.(list int) "permutation of names" (List.init 256 Fun.id) names

let test_tight_step_complexity_logarithmic () =
  (* The mass-conserving schedule must stay well below linear: at
     n = 1024 a linear algorithm pays ~1024 steps; we demand < 30 log n. *)
  let report = run_tight ~policy:Params.Mass_conserving ~n:1024 ~seed:4L () in
  check Alcotest.bool "max steps < 30 log n" true (Report.max_steps report < 30 * 10)

let test_tight_deterministic_given_seed () =
  let r1 = run_tight ~policy:Params.Mass_conserving ~n:128 ~seed:7L () in
  let r2 = run_tight ~policy:Params.Mass_conserving ~n:128 ~seed:7L () in
  check Alcotest.int "same ticks" r1.Report.ticks r2.Report.ticks;
  check
    Alcotest.(array int)
    "same assignment" r1.Report.assignment.Renaming_shm.Assignment.names
    r2.Report.assignment.Renaming_shm.Assignment.names

let test_tight_instrumentation_consistent () =
  let params = Params.make ~policy:Params.Mass_conserving ~n:512 () in
  let instr = Tight.create_instrumentation params in
  let report = Tight.run ~instr ~params ~seed:5L () in
  check Alcotest.int "complete" 512 (Report.named_count report);
  (* Total device-bit wins + reserve entries must cover all processes. *)
  let wins = Array.fold_left ( + ) 0 instr.Tight.wins_per_round in
  check Alcotest.bool "wins + reserve >= n" true (wins + instr.Tight.reserve_entries >= 512);
  (* No block may receive more accepted winners than tau: implied by the
     device, but the request counters must at least exist for every
     round. *)
  check Alcotest.int "request counters sized" params.Params.total_taus
    (Array.length instr.Tight.requests_per_tau)

let test_tight_under_crashes () =
  let adversary =
    Adversary.with_crashes ~base:(Adversary.round_robin ())
      ~crash_times:(List.init 32 (fun i -> (i * 3, i * 4)))
  in
  let report = run_tight ~adversary ~policy:Params.Mass_conserving ~n:128 ~seed:6L () in
  check Alcotest.bool "sound" true (Report.is_sound report);
  check Alcotest.int "survivors all named" 0 (List.length (Report.surviving_unnamed report))

let test_tight_under_unfair_adversaries () =
  List.iter
    (fun adversary ->
      let report = run_tight ~adversary ~policy:Params.Mass_conserving ~n:128 ~seed:8L () in
      check Alcotest.bool ("sound under " ^ report.Report.adversary) true (Report.is_sound report);
      check Alcotest.int ("complete under " ^ report.Report.adversary) 128
        (Report.named_count report))
    [ Adversary.lifo; Adversary.adaptive_contention; Adversary.colluding ]

(* ---------- Loose geometric (Lemma 6) ---------- *)

let test_geometric_parameters () =
  let cfg = { Geometric.n = 65536; ell = 2 } in
  check Alcotest.int "rounds = l * logloglog n" 4 (Geometric.rounds cfg);
  check Alcotest.int "budget = sum 2^i" 30 (Geometric.step_budget cfg)

let test_geometric_sound_and_bounded () =
  let cfg = { Geometric.n = 2048; ell = 2 } in
  let report = Geometric.run cfg ~seed:1L in
  check Alcotest.bool "sound" true (Report.is_sound report);
  check Alcotest.bool "steps within budget" true
    (Report.max_steps report <= Geometric.step_budget cfg);
  let unnamed = List.length (Report.surviving_unnamed report) in
  check Alcotest.bool "unnamed below bound" true
    (float_of_int unnamed <= Geometric.predicted_unnamed cfg)

let test_geometric_instrumentation_sums () =
  let cfg = { Geometric.n = 1024; ell = 1 } in
  let instr = Geometric.create_instrumentation cfg in
  let report = Geometric.run ~instr cfg ~seed:2L in
  let named = Array.fold_left ( + ) 0 instr.Geometric.named_in_round in
  check Alcotest.int "instrumented wins = named" (Report.named_count report) named

let test_geometric_validation () =
  Alcotest.check_raises "bad ell" (Invalid_argument "Loose_geometric: ell must be >= 1")
    (fun () -> ignore (Geometric.rounds { Geometric.n = 64; ell = 0 }))

(* ---------- Loose clustered (Lemma 8) ---------- *)

let test_clustered_cluster_bounds_cover_namespace () =
  let bounds =
    Array.map
      (function
        | Plan.Probe { base; size; count = _ } -> (base, size)
        | Plan.Sweep _ -> Alcotest.fail "Lemma 8's plan has no sweep")
      (Plan.loose_clustered ~n:4096 ~ell:1 ())
  in
  let total = Array.fold_left (fun acc (_, size) -> acc + size) 0 bounds in
  check Alcotest.int "clusters cover n" 4096 total;
  (* geometric halving for all but the last cluster *)
  Array.iteri
    (fun j (base, size) ->
      if j < Array.length bounds - 1 then begin
        check Alcotest.int (Printf.sprintf "size %d" j) (4096 / Mathx.pow_int 2 (j + 1)) size;
        let next_base, _ = bounds.(j + 1) in
        check Alcotest.int "contiguous" (base + size) next_base
      end)
    bounds

let test_clustered_sound_and_bounded () =
  let cfg = { Clustered.n = 2048; ell = 1 } in
  let report = Clustered.run cfg ~seed:3L in
  check Alcotest.bool "sound" true (Report.is_sound report);
  check Alcotest.bool "steps within budget" true
    (Report.max_steps report <= Clustered.step_budget cfg)

let test_clustered_instrumentation () =
  let cfg = { Clustered.n = 1024; ell = 1 } in
  let instr = Clustered.create_instrumentation cfg in
  let report = Clustered.run ~instr cfg ~seed:4L in
  let named = Array.fold_left ( + ) 0 instr.Clustered.named_in_phase in
  check Alcotest.int "instrumented wins = named" (Report.named_count report) named

(* ---------- Backup ---------- *)

(* The corollaries' backup phase alone, on [0, size). *)
let backup ~size = Plan.corollary ~first:[||] ~n:0 ~ext:size

let run_backup ~stragglers ~size ~seed =
  let memory = Memory.create ~namespace:size () in
  let stream = Stream.create seed in
  let programs =
    Array.init stragglers (fun pid ->
        Plan_exec.program (backup ~size) ~rng:(Stream.fork stream ~index:pid))
  in
  Executor.run ~adversary:(Adversary.round_robin ())
    { Executor.memory; programs; label = "backup" }

let test_backup_names_everyone () =
  let report = run_backup ~stragglers:100 ~size:200 ~seed:1L in
  check Alcotest.bool "sound" true (Report.is_sound report);
  check Alcotest.int "all named" 100 (Report.named_count report)

let test_backup_exact_fit () =
  (* stragglers = size: still complete thanks to the final sweep. *)
  let report = run_backup ~stragglers:64 ~size:64 ~seed:2L in
  check Alcotest.int "all named" 64 (Report.named_count report)

let test_backup_max_random_steps () =
  let budget = Plan.probe_budget (backup ~size:100) in
  check Alcotest.bool "budget positive" true (budget > 0);
  (* doubling batches 1+2+...+cap: bounded by 8*size *)
  check Alcotest.bool "budget bounded" true (budget <= 8 * 100)

(* ---------- Combined (Corollaries 7 and 9) ---------- *)

let test_combined_geometric_complete () =
  let cfg = { Combined.n = 1024; variant = Combined.Geometric { ell = 2 } } in
  let report = Combined.run cfg ~seed:1L in
  check Alcotest.bool "sound" true (Report.is_sound report);
  check Alcotest.int "complete" 1024 (Report.named_count report);
  check Alcotest.bool "namespace larger than n" true (Combined.namespace cfg > 1024)

let test_combined_clustered_complete () =
  let cfg = { Combined.n = 1024; variant = Combined.Clustered { ell = 1 } } in
  let report = Combined.run cfg ~seed:2L in
  check Alcotest.bool "sound" true (Report.is_sound report);
  check Alcotest.int "complete" 1024 (Report.named_count report)

let test_combined_extension_formulas () =
  let n = 65536 in
  (* Cor 7: 2n/(loglog n)^l with loglog 65536 = 4. *)
  check Alcotest.int "geometric l=1" (2 * n / 4)
    (Combined.extension_size { Combined.n; variant = Combined.Geometric { ell = 1 } });
  check Alcotest.int "geometric l=2" (2 * n / 16)
    (Combined.extension_size { Combined.n; variant = Combined.Geometric { ell = 2 } });
  (* Cor 9: 2n/(log n)^l with log 65536 = 16. *)
  check Alcotest.int "clustered l=1" (2 * n / 16)
    (Combined.extension_size { Combined.n; variant = Combined.Clustered { ell = 1 } })

let test_combined_complete_under_adversaries () =
  let cfg = { Combined.n = 256; variant = Combined.Geometric { ell = 2 } } in
  List.iter
    (fun adversary ->
      let report = Combined.run ~adversary cfg ~seed:5L in
      check Alcotest.int ("complete under " ^ report.Report.adversary) 256
        (Report.named_count report))
    [ Adversary.lifo; Adversary.adaptive_contention; Adversary.colluding ]

let test_combined_under_crashes () =
  let cfg = { Combined.n = 256; variant = Combined.Clustered { ell = 1 } } in
  let adversary =
    Adversary.with_crashes ~base:(Adversary.round_robin ())
      ~crash_times:(List.init 64 (fun i -> (i * 2, i * 4)))
  in
  let report = Combined.run ~adversary cfg ~seed:6L in
  check Alcotest.bool "sound" true (Report.is_sound report);
  check Alcotest.int "survivors named" 0 (List.length (Report.surviving_unnamed report))

let qcheck_tight_sound_random_seeds =
  QCheck.Test.make ~count:25 ~name:"tight renaming sound and complete on random seeds"
    QCheck.(pair small_int (int_range 8 200))
    (fun (seed, n) ->
      let report = run_tight ~policy:Params.Mass_conserving ~n ~seed:(Int64.of_int seed) () in
      Report.is_sound report && Report.named_count report = n)

let qcheck_combined_complete_random_seeds =
  QCheck.Test.make ~count:20 ~name:"corollary 7 complete on random seeds"
    QCheck.(pair small_int (int_range 8 300))
    (fun (seed, n) ->
      let cfg = { Combined.n; variant = Combined.Geometric { ell = 1 } } in
      let report = Combined.run cfg ~seed:(Int64.of_int seed) in
      Report.is_sound report && Report.named_count report = n)

let tests =
  [
    ( "core",
      [
        Alcotest.test_case "log2" `Quick test_log2;
        Alcotest.test_case "loglog" `Quick test_loglog;
        Alcotest.test_case "pow" `Quick test_pow;
        Alcotest.test_case "params mass-conserving geometry" `Quick
          test_params_mass_conserving_geometry;
        Alcotest.test_case "params literal Definition 2" `Quick test_params_literal_matches_definition2;
        Alcotest.test_case "params literal coverage gap" `Quick test_params_literal_coverage_gap;
        Alcotest.test_case "params rounds monotone" `Quick test_params_rounds_monotone;
        Alcotest.test_case "params validation" `Quick test_params_validation;
        Alcotest.test_case "tight complete+sound" `Quick test_tight_complete_and_sound;
        Alcotest.test_case "tight literal complete" `Quick test_tight_literal_complete;
        Alcotest.test_case "tight namespace = n" `Quick test_tight_namespace_exactly_n;
        Alcotest.test_case "tight O(log n) steps" `Quick test_tight_step_complexity_logarithmic;
        Alcotest.test_case "tight deterministic" `Quick test_tight_deterministic_given_seed;
        Alcotest.test_case "tight instrumentation" `Quick test_tight_instrumentation_consistent;
        Alcotest.test_case "tight under crashes" `Quick test_tight_under_crashes;
        Alcotest.test_case "tight unfair adversaries" `Quick test_tight_under_unfair_adversaries;
        Alcotest.test_case "geometric parameters" `Quick test_geometric_parameters;
        Alcotest.test_case "geometric sound+bounded" `Quick test_geometric_sound_and_bounded;
        Alcotest.test_case "geometric instrumentation" `Quick test_geometric_instrumentation_sums;
        Alcotest.test_case "geometric validation" `Quick test_geometric_validation;
        Alcotest.test_case "clustered bounds cover" `Quick test_clustered_cluster_bounds_cover_namespace;
        Alcotest.test_case "clustered sound+bounded" `Quick test_clustered_sound_and_bounded;
        Alcotest.test_case "clustered instrumentation" `Quick test_clustered_instrumentation;
        Alcotest.test_case "backup names everyone" `Quick test_backup_names_everyone;
        Alcotest.test_case "backup exact fit" `Quick test_backup_exact_fit;
        Alcotest.test_case "backup step budget" `Quick test_backup_max_random_steps;
        Alcotest.test_case "cor7 complete" `Quick test_combined_geometric_complete;
        Alcotest.test_case "cor9 complete" `Quick test_combined_clustered_complete;
        Alcotest.test_case "extension formulas" `Quick test_combined_extension_formulas;
        Alcotest.test_case "combined adversaries" `Quick test_combined_complete_under_adversaries;
        Alcotest.test_case "combined crashes" `Quick test_combined_under_crashes;
        QCheck_alcotest.to_alcotest qcheck_tight_sound_random_seeds;
        QCheck_alcotest.to_alcotest qcheck_combined_complete_random_seeds;
      ] );
  ]

(* --- appended: device-rule equivalence and cadence integration --- *)

let test_tight_literal_rule_equals_reference_rule () =
  (* The whole tight algorithm must behave identically under the paper's
     shifting discard and the reference discard — same seed, same
     schedule, same assignment. *)
  let params = Params.make ~policy:Params.Mass_conserving ~n:256 () in
  let a = Tight.run ~rule:Renaming_device.Counting_device.Literal ~params ~seed:21L () in
  let b = Tight.run ~rule:Renaming_device.Counting_device.Reference ~params ~seed:21L () in
  Alcotest.check
    Alcotest.(array int)
    "assignments identical" a.Report.assignment.Renaming_shm.Assignment.names
    b.Report.assignment.Renaming_shm.Assignment.names;
  Alcotest.check Alcotest.int "tick counts identical" a.Report.ticks b.Report.ticks

let test_tight_completes_at_any_cadence () =
  let params = Params.make ~policy:Params.Mass_conserving ~n:64 () in
  List.iter
    (fun cadence ->
      let stream = Stream.create 31L in
      let inst = Tight.instance ~params ~stream () in
      let report =
        Executor.run ~tau_cadence:cadence ~adversary:(Adversary.round_robin ()) inst
      in
      Alcotest.check Alcotest.int
        (Printf.sprintf "complete at cadence %d" cadence)
        64 (Report.named_count report);
      Alcotest.check Alcotest.bool "sound" true (Report.is_sound report))
    [ 1; 3; 7; 100 ]

let qcheck_params_mass_conserving_partition =
  QCheck.Test.make ~count:100 ~name:"mass-conserving schedule partitions the namespace"
    QCheck.(int_range 8 100000)
    (fun n ->
      let p = Params.make ~policy:Params.Mass_conserving ~n () in
      Params.cluster_name_coverage p + Params.reserve_size p = n
      && Params.reserve_size p >= 0
      && Array.for_all (fun r -> r.Params.blocks >= 1) p.Params.rounds)

let qcheck_params_literal_within_namespace =
  QCheck.Test.make ~count:100 ~name:"literal schedule never overruns the namespace"
    QCheck.(int_range 8 100000)
    (fun n ->
      let p = Params.make ~policy:Params.Paper_literal ~n () in
      Params.cluster_name_coverage p <= n)

let extra_tests =
  [
    ( "core-integration",
      [
        Alcotest.test_case "literal = reference rule" `Quick
          test_tight_literal_rule_equals_reference_rule;
        Alcotest.test_case "any cadence completes" `Quick test_tight_completes_at_any_cadence;
        QCheck_alcotest.to_alcotest qcheck_params_mass_conserving_partition;
        QCheck_alcotest.to_alcotest qcheck_params_literal_within_namespace;
      ] );
  ]

let tests = tests @ extra_tests

(* --- appended: accounting properties --- *)

let qcheck_geometric_accounting =
  QCheck.Test.make ~count:25 ~name:"loose geometric: named + unnamed = n, ticks = total steps"
    QCheck.(pair small_int (int_range 4 400))
    (fun (seed, n) ->
      let cfg = { Geometric.n; ell = 1 } in
      let report = Geometric.run cfg ~seed:(Int64.of_int seed) in
      let named = Report.named_count report in
      let unnamed = List.length (Report.surviving_unnamed report) in
      named + unnamed = n
      && report.Report.ticks = Renaming_shm.Step_ledger.total report.Report.ledger)

let accounting_tests =
  [ ("core-accounting", [ QCheck_alcotest.to_alcotest qcheck_geometric_accounting ]) ]

let tests = tests @ accounting_tests

(* --- appended: combined stress matrix --- *)

let test_stress_matrix () =
  (* Everything at once: staggered arrivals, crashes, an unfair base
     schedule, and a slow device clock.  Soundness and
     survivor-completeness must survive the combination. *)
  let n = 96 in
  let params = Params.make ~policy:Params.Mass_conserving ~n () in
  let crash_rng = Renaming_rng.Stream.fork_named (Stream.create 0x57E55L) ~name:"crash" in
  let base =
    Renaming_workload.Arrival.adversary
      (Renaming_workload.Arrival.Bursty { bursts = 3; gap = 200 })
      ~n ~base:Adversary.lifo
  in
  let adversary =
    Adversary.with_crashes ~base
      ~crash_times:
        (Renaming_workload.Crash_pattern.random ~rng:crash_rng ~n ~failures:(n / 8)
           ~horizon:(8 * n))
  in
  let stream = Stream.create 0xC0FFEEL in
  let inst = Tight.instance ~params ~stream () in
  let report = Executor.run ~tau_cadence:5 ~adversary inst in
  check Alcotest.bool "sound" true (Report.is_sound report);
  check Alcotest.int "survivors all named" 0 (List.length (Report.surviving_unnamed report));
  check Alcotest.bool "some crashes happened" true (report.Report.crashed <> [])

let stress_tests =
  [ ("core-stress", [ Alcotest.test_case "combined stress matrix" `Quick test_stress_matrix ]) ]

let tests = tests @ stress_tests
