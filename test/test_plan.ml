(* Probe plans: the builders, the simulator's interpreter, and the
   agreement of the two engines that run them. *)

module Plan = Renaming_plan.Plan
module Plan_exec = Renaming_sched.Plan_exec
module Executor = Renaming_sched.Executor
module Memory = Renaming_sched.Memory
module Program = Renaming_sched.Program
module Op = Renaming_sched.Op
module Adversary = Renaming_sched.Adversary
module Report = Renaming_sched.Report
module Ledger = Renaming_shm.Step_ledger
module Assignment = Renaming_shm.Assignment
module Geometric = Renaming_core.Loose_geometric
module Clustered = Renaming_core.Loose_clustered
module Combined = Renaming_core.Combined
module Adaptive = Renaming_core.Adaptive
module Uniform_probing = Renaming_baselines.Uniform_probing
module Mc_run = Renaming_concurrent.Mc_run
module Obs = Renaming_obs.Obs
module Ring = Renaming_obs.Ring
module Stream = Renaming_rng.Stream

let check = Alcotest.check

(* ---------- builders ---------- *)

let test_corollary_shape () =
  let first = Plan.loose_geometric ~n:10 ~ell:1 in
  let plan = Plan.corollary ~first ~n:10 ~ext:3 in
  check Alcotest.int "the first phase leads" (Array.length first + 6) (Array.length plan);
  check Alcotest.bool "unchanged" true (Array.sub plan 0 (Array.length first) = first);
  let rest = Array.sub plan (Array.length first) 6 in
  let counts =
    Array.to_list
      (Array.map (function Plan.Probe { count; _ } -> count | Plan.Sweep _ -> -1) rest)
  in
  (* backup batches 1, 2, 4, 8 stay within 4 * 3 = 12; then its sweep,
     then the main sweep *)
  check Alcotest.(list int) "doubling batches, then two sweeps" [ 1; 2; 4; 8; -1; -1 ] counts;
  Array.iteri
    (fun i -> function
      | Plan.Probe { base; size; _ } | Plan.Sweep { base; size } ->
        check Alcotest.(pair int int) "segment slice"
          (if i < 5 then (10, 3) else (0, 10))
          (base, size))
    rest;
  check Alcotest.int "probe budget" (Plan.probe_budget first + 15) (Plan.probe_budget plan)

let test_uniform_probing_budget () =
  (match Plan.uniform_probing ~m:50 () with
  | [| Plan.Probe { base = 0; size = 50; count = 200 }; Plan.Sweep { base = 0; size = 50 } |] -> ()
  | _ -> Alcotest.fail "default: 4m probes over [0, m), then a sweep");
  check Alcotest.int "explicit budget" 7 (Plan.probe_budget (Plan.uniform_probing ~max_probes:7 ~m:50 ()))

let test_clustered_boost () =
  let plain = Plan.loose_clustered ~n:4096 ~ell:1 () in
  let boosted = Plan.loose_clustered ~boost:2 ~n:4096 ~ell:1 () in
  check Alcotest.int "same clusters" (Array.length plain) (Array.length boosted);
  check Alcotest.int "twice the probes" (2 * Plan.probe_budget plain) (Plan.probe_budget boosted);
  check Alcotest.int "the lemma's budget" (Clustered.step_budget { Clustered.n = 4096; ell = 1 })
    (Plan.probe_budget plain)

let test_validation () =
  Alcotest.check_raises "bad n" (Invalid_argument "Plan.loose_geometric: n must be >= 4")
    (fun () -> ignore (Plan.loose_geometric ~n:2 ~ell:1));
  Alcotest.check_raises "bad m" (Invalid_argument "Mc_run.uniform_probing: bad parameters")
    (fun () -> ignore (Mc_run.uniform_probing ~domains:1 ~n:10 ~m:5 ~seed:1L ()))

(* ---------- the interpreter ---------- *)

let tas_target = function
  | Program.Step (Op.Tas_name i, _) -> i
  | Program.Step (op, _) -> Alcotest.failf "expected a TAS, got %a" Op.pp op
  | Program.Done _ -> Alcotest.fail "expected a TAS, got Done"

let continue_with resp = function
  | Program.Step (_, k) -> k resp
  | Program.Done _ -> Alcotest.fail "program already done"

(* A restarted process reruns its first program value: that value's
   continuation puts the process back at its first probe, wherever it
   had got to. *)
let test_restart_reissues_first_probe () =
  let first = Plan_exec.program (Plan.linear_scan ~first:0 ~count:5) in
  check Alcotest.int "first cell" 0 (tas_target first);
  let p = ref first in
  for expected = 1 to 3 do
    p := continue_with (Op.Bool false) !p;
    check Alcotest.int "sweep cursor" expected (tas_target !p)
  done;
  let restarted = continue_with (Op.Bool false) first in
  check Alcotest.int "after a restart the sweep goes on from cell 1" 1 (tas_target restarted);
  match continue_with (Op.Bool true) restarted with
  | Program.Done (Some 1) -> ()
  | _ -> Alcotest.fail "a won TAS returns its register"

let test_fault_is_retried () =
  let p = Plan_exec.program (Plan.linear_scan ~first:4 ~count:2) in
  (* a fault backs off one yield and retries the same register *)
  let p = continue_with Op.Faulted p in
  (match p with
  | Program.Step (Op.Yield, _) -> ()
  | _ -> Alcotest.fail "expected a backoff yield");
  let p = continue_with Op.Unit p in
  check Alcotest.int "same register again" 4 (tas_target p);
  let p = continue_with (Op.Bool false) p in
  check Alcotest.int "then the next cell" 5 (tas_target p);
  match continue_with (Op.Bool false) p with
  | Program.Done None -> ()
  | _ -> Alcotest.fail "a spent plan returns None"

(* Corollary 7's stage telemetry on one hand-driven process (n = 16,
   ℓ = 1: one round of two probes, then the backup phase, then the main
   sweep), where TAS number [win_at] wins and every other one loses.
   Its events are tagged B(egin), E(nd) or I(nstant); probes are left
   out. *)
let corollary_stages ~win_at =
  let obs = Obs.create () in
  let cfg = { Combined.n = 16; variant = Combined.Geometric { ell = 1 } } in
  let inst = Combined.instance ~obs cfg ~stream:(Stream.create 1L) in
  let rec go i = function
    | Program.Done name -> name
    | Program.Step (Op.Tas_name _, k) -> go (i + 1) (k (Op.Bool (i = win_at)))
    | Program.Step (op, _) -> Alcotest.failf "expected a TAS, got %a" Op.pp op
  in
  let name = go 0 inst.Renaming_sched.Executor.programs.(0) in
  let tag (e : Ring.event) =
    match e.Ring.ev_kind with
    | _ when e.Ring.ev_name = "probe" || e.Ring.ev_pid <> 0 -> None
    | Ring.Span_begin -> Some ("B " ^ e.Ring.ev_name)
    | Ring.Span_end -> Some ("E " ^ e.Ring.ev_name)
    | Ring.Instant -> Some ("I " ^ e.Ring.ev_name)
  in
  (name, List.filter_map tag (Obs.events obs))

let test_corollary_stages () =
  let first_phase = [ "B round"; "E round"; "I give-up" ] in
  let events = Alcotest.(list string) in
  (match corollary_stages ~win_at:1 with
  | Some _, ev -> check events "won in round 1" [ "B round"; "I win"; "E round" ] ev
  | None, _ -> Alcotest.fail "a win in the first phase names the process");
  (match corollary_stages ~win_at:2 with
  | Some name, ev ->
    check Alcotest.bool "a name in the extension" true (name >= 16);
    check events "won at the first backup probe" (first_phase @ [ "B backup"; "E backup" ]) ev
  | None, _ -> Alcotest.fail "a win in the backup names the process");
  match corollary_stages ~win_at:(-1) with
  | None, ev ->
    check events "every TAS lost: all three stages run out"
      (first_phase @ [ "B backup"; "E backup"; "I main-sweep" ])
      ev
  | Some _, _ -> Alcotest.fail "no TAS won, no name"

(* ---------- the two engines agree ---------- *)

(* Steps the runnable processes in pid order, one step each per pass,
   which is how one-domain [Mc_run] sweeps its live set.
   [Adversary.round_robin] walks a swap-compacted live set instead, so
   after a win it takes the processes in another order. *)
let pid_order_round_robin () =
  let last = ref (-1) in
  {
    Adversary.name = "pid-order round-robin";
    decide =
      (fun view ->
        let next = ref max_int and lowest = ref max_int in
        for i = 0 to view.Adversary.runnable_count - 1 do
          let pid = view.Adversary.runnable_nth i in
          if pid > !last && pid < !next then next := pid;
          if pid < !lowest then lowest := pid
        done;
        let pid = if !next < max_int then !next else !lowest in
        last := pid;
        Adversary.Schedule pid);
  }

let agree label (sim : Report.t) (mc : Mc_run.result) =
  check Alcotest.bool (label ^ ": simulator run sound") true (Report.is_sound sim);
  check
    Alcotest.(array int)
    (label ^ ": per-pid names")
    sim.Report.assignment.Assignment.names mc.Mc_run.assignment.Assignment.names;
  check
    Alcotest.(array int)
    (label ^ ": per-pid steps")
    (Array.init (Array.length mc.Mc_run.steps) (fun pid -> Ledger.steps_of sim.Report.ledger ~pid))
    mc.Mc_run.steps

let test_engines_agree () =
  List.iter
    (fun (n, seed) ->
      let label = Printf.sprintf "n=%d seed=%Ld" n seed in
      agree ("Lemma 6 " ^ label)
        (Geometric.run ~adversary:(pid_order_round_robin ()) { Geometric.n; ell = 2 } ~seed)
        (Mc_run.loose_geometric ~domains:1 ~n ~ell:2 ~seed ());
      agree ("Lemma 8 " ^ label)
        (Clustered.run ~adversary:(pid_order_round_robin ()) { Clustered.n; ell = 1 } ~seed)
        (Mc_run.loose_clustered ~domains:1 ~n ~ell:1 ~seed ());
      agree ("uniform probing m=2n " ^ label)
        (Uniform_probing.run ~adversary:(pid_order_round_robin ())
           (Uniform_probing.make_config ~n ~m:(2 * n) ())
           ~seed)
        (Mc_run.uniform_probing ~domains:1 ~n ~m:(2 * n) ~seed ());
      List.iter
        (fun (label, variant, first) ->
          let cfg = { Combined.n; variant } in
          let plan = Plan.corollary ~first ~n ~ext:(Combined.extension_size cfg) in
          agree (label ^ label)
            (Combined.run ~adversary:(pid_order_round_robin ()) cfg ~seed)
            (Mc_run.execute ~domains:1 ~n ~namespace:(Combined.namespace cfg) ~plan ~seed ()))
        [
          ("Corollary 7 ", Combined.Geometric { ell = 2 }, Plan.loose_geometric ~n ~ell:2);
          ("Corollary 9 ", Combined.Clustered { ell = 1 }, Plan.loose_clustered ~n ~ell:1 ());
        ];
      let cfg = Adaptive.make_config ~k:n () in
      let plan = Plan.adaptive ~k:n ~ell:cfg.Adaptive.ell ~epsilon:cfg.Adaptive.epsilon in
      agree ("adaptive " ^ label)
        (Adaptive.run ~adversary:(pid_order_round_robin ()) cfg ~seed)
        (Mc_run.execute ~domains:1 ~n ~namespace:(Adaptive.namespace cfg) ~plan ~seed ()))
    [ (256, 1L); (1024, 1L); (2048, 7L) ];
  (* m = n: the probe budget runs out and the sweep names the rest *)
  agree "uniform probing m=n"
    (Uniform_probing.run ~adversary:(pid_order_round_robin ())
       (Uniform_probing.make_config ~n:48 ~m:48 ())
       ~seed:3L)
    (Mc_run.uniform_probing ~domains:1 ~n:48 ~m:48 ~seed:3L ());
  (* Empty segments of each kind between non-empty ones, then a final
     sweep: both engines skip the same segments, so they take the same
     steps. *)
  let plan =
    [|
      Plan.Probe { base = 0; size = 64; count = 0 };
      Probe { base = 0; size = 64; count = 2 };
      Probe { base = 16; size = 0; count = 5 };
      Sweep { base = 8; size = 0 };
      Probe { base = 32; size = 32; count = 3 };
      Probe { base = 0; size = 64; count = 0 };
      Sweep { base = 0; size = 0 };
      Sweep { base = 8; size = 40 };
    |]
  in
  let n = 56 and namespace = 64 and seed = 5L in
  let stream = Stream.create seed in
  let inst =
    {
      Executor.memory = Memory.create ~namespace ();
      programs =
        Executor.init_programs n (fun pid ->
            Plan_exec.program plan ~rng:(Stream.fork stream ~index:pid));
      label = "hand-written plan";
    }
  in
  agree "empty segments, then a sweep"
    (Executor.run ~adversary:(pid_order_round_robin ()) inst)
    (Mc_run.execute ~domains:1 ~n ~namespace ~plan ~seed ())

(* ---------- the lemmas on one-domain Mc_run (F4's engine) ---------- *)

let unnamed = Mc_run.unnamed_count

let test_geometric_within_budget () =
  let cfg = { Geometric.n = 4096; ell = 2 } in
  let r = Mc_run.loose_geometric ~domains:1 ~n:4096 ~ell:2 ~seed:1L () in
  check Alcotest.bool "steps within budget" true (Mc_run.max_steps r <= Geometric.step_budget cfg);
  check Alcotest.bool "unnamed below bound" true
    (float_of_int (unnamed r) <= Geometric.predicted_unnamed cfg)

let test_geometric_deterministic () =
  let a = Mc_run.loose_geometric ~domains:1 ~n:2048 ~ell:1 ~seed:9L () in
  let b = Mc_run.loose_geometric ~domains:1 ~n:2048 ~ell:1 ~seed:9L () in
  check Alcotest.(array int) "same steps" a.Mc_run.steps b.Mc_run.steps;
  check
    Alcotest.(array int)
    "same names" a.Mc_run.assignment.Assignment.names b.Mc_run.assignment.Assignment.names

let test_geometric_seed_sensitivity () =
  let a = Mc_run.loose_geometric ~domains:1 ~n:8192 ~ell:2 ~seed:1L () in
  let b = Mc_run.loose_geometric ~domains:1 ~n:8192 ~ell:2 ~seed:2L () in
  check Alcotest.bool "different trajectories" true
    (a.Mc_run.assignment.Assignment.names <> b.Mc_run.assignment.Assignment.names)

let test_clustered_within_budget () =
  let r = Mc_run.loose_clustered ~domains:1 ~n:4096 ~ell:1 ~seed:2L () in
  check Alcotest.bool "steps within budget" true
    (Mc_run.max_steps r <= Clustered.step_budget { Clustered.n = 4096; ell = 1 })

let test_clustered_boost_helps () =
  let run boost =
    let plan = Plan.loose_clustered ~boost ~n:16384 ~ell:1 () in
    Mc_run.execute ~domains:1 ~n:16384 ~namespace:16384 ~plan ~seed:3L ()
  in
  check Alcotest.bool "boost helps" true (unnamed (run 2) < unnamed (run 1))

let test_probing_complete () =
  let r = Mc_run.uniform_probing ~domains:1 ~n:10_000 ~m:20_000 ~seed:4L () in
  check Alcotest.int "everyone named" 0 (unnamed r);
  check Alcotest.bool "fast when loose" true (Mc_run.max_steps r < 200)

let test_probing_tight_sweep () =
  let r = Mc_run.uniform_probing ~domains:1 ~n:1000 ~m:1000 ~seed:5L () in
  check Alcotest.int "everyone named (sweep)" 0 (unnamed r)

let qcheck_geometric_bound =
  QCheck.Test.make ~count:20 ~name:"one-domain Lemma 6 bound holds on random seeds"
    QCheck.small_int (fun seed ->
      let n = 4096 and ell = 2 in
      let r = Mc_run.loose_geometric ~domains:1 ~n ~ell ~seed:(Int64.of_int seed) () in
      float_of_int (unnamed r) <= Geometric.predicted_unnamed { Geometric.n; ell })

let tests =
  [
    ( "plan",
      [
        Alcotest.test_case "backup batches then sweep" `Quick test_corollary_shape;
        Alcotest.test_case "uniform probing budget" `Quick test_uniform_probing_budget;
        Alcotest.test_case "clustered boost" `Quick test_clustered_boost;
        Alcotest.test_case "validation" `Quick test_validation;
        Alcotest.test_case "restart reissues first probe" `Quick test_restart_reissues_first_probe;
        Alcotest.test_case "fault is retried" `Quick test_fault_is_retried;
        Alcotest.test_case "simulator = one-domain mc" `Quick test_engines_agree;
        Alcotest.test_case "geometric within budget" `Quick test_geometric_within_budget;
        Alcotest.test_case "geometric deterministic" `Quick test_geometric_deterministic;
        Alcotest.test_case "geometric seed sensitivity" `Quick test_geometric_seed_sensitivity;
        Alcotest.test_case "clustered within budget" `Quick test_clustered_within_budget;
        Alcotest.test_case "clustered boost helps" `Quick test_clustered_boost_helps;
        Alcotest.test_case "probing complete" `Quick test_probing_complete;
        Alcotest.test_case "probing tight sweep" `Quick test_probing_tight_sweep;
        QCheck_alcotest.to_alcotest qcheck_geometric_bound;
        Alcotest.test_case "corollary stage telemetry" `Quick test_corollary_stages;
      ] );
  ]
