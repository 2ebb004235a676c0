(* Tests for the bounded model checker: directed execution, the
   analytic schedule-count vector, DPOR against the unpruned enumerator,
   detection + shrinking of seeded broken algorithms, and the tier-1
   roster. *)

module Program = Renaming_sched.Program
module Op = Renaming_sched.Op
module Memory = Renaming_sched.Memory
module Executor = Renaming_sched.Executor
module Report = Renaming_sched.Report
module Directed = Renaming_sched.Directed
module Monitor = Renaming_faults.Monitor
module Shrink = Renaming_faults.Shrink
module Retry = Renaming_sched.Retry
module Mcheck = Renaming_mcheck.Mcheck
module Races = Renaming_mcheck.Races
module Wakeup = Renaming_mcheck.Wakeup
module Roster = Renaming_harness.Mcheck_roster

let check = Alcotest.check
open Program.Syntax

let instance ~namespace ~label programs = { Executor.memory = Memory.create ~namespace (); programs; label }

let target ?(mode = Monitor.Tas) ~label ~n build =
  { Renaming_faults.Target.name = label; n; mode; build = (fun ~seed:_ -> build ()) }

let bounds ?(preemptions = 2) ?(crashes = 0) ?(recoveries = 0) ?(faults = 0) () =
  {
    Mcheck.default_bounds with
    Mcheck.b_preemptions = preemptions;
    b_crashes = crashes;
    b_recoveries = recoveries;
    b_faults = faults;
  }

(* --- directed execution --- *)

let solo_tas reg =
  let* _won = Program.tas_name reg in
  Program.return None

let test_directed_strict_divergence () =
  let inst () = instance ~namespace:1 ~label:"solo" [| solo_tas 0 |] in
  let run = Directed.run ~strict:true ~prefix:[ Directed.Step 5 ] (inst ()) in
  (match run.Directed.outcome with
  | Directed.Raised (Directed.Divergence d) ->
    check Alcotest.int "diverged at decision 0" 0 d.Directed.at;
    check Alcotest.bool "expected step of pid 5" true (d.Directed.expected = Some (Directed.Step 5));
    check Alcotest.(list int) "runnable" [ 0 ] d.Directed.runnable
  | _ -> Alcotest.fail "expected Directed.Divergence");
  (* An infeasible Fault (pending op not faultable) also diverges. *)
  let yield_first =
    let* () = Program.yield in
    solo_tas 0
  in
  let run =
    Directed.run ~strict:true ~prefix:[ Directed.Fault 0 ]
      (instance ~namespace:1 ~label:"yield-first" [| yield_first |])
  in
  match run.Directed.outcome with
  | Directed.Raised (Directed.Divergence d) ->
    check Alcotest.bool "expected fault of pid 0" true (d.Directed.expected = Some (Directed.Fault 0))
  | _ -> Alcotest.fail "expected Directed.Divergence for unfaultable op"

let test_directed_permissive_drops () =
  let inst () = instance ~namespace:2 ~label:"pair" [| solo_tas 0; solo_tas 1 |] in
  let run = Directed.run ~prefix:[ Directed.Step 7; Directed.Step 1 ] (inst ()) in
  check Alcotest.int "infeasible choice dropped" 1 run.Directed.dropped;
  (match run.Directed.outcome with
  | Directed.Finished report -> check Alcotest.bool "completed" true (not (Report.is_livelock report))
  | Directed.Raised _ -> Alcotest.fail "unexpected exception");
  (* The feasible part of the prefix was honoured. *)
  check Alcotest.bool "first decision steps pid 1" true
    (Array.length run.Directed.taken > 0 && run.Directed.taken.(0) = Directed.Step 1)

let test_directed_same_prefix_same_execution () =
  let inst () = instance ~namespace:2 ~label:"pair" [| solo_tas 0; solo_tas 1 |] in
  let go () =
    let r = Directed.run ~prefix:[ Directed.Step 1 ] (inst ()) in
    Array.to_list r.Directed.taken
  in
  check Alcotest.bool "deterministic" true (go () = go ())

(* --- the analytic schedule-count vector ---

   Two processes, two TAS steps each, all on the same register: every
   operation conflicts, so DPOR can reduce nothing and both explorers'
   schedule counts are exactly the by-hand interleaving counts
   {aabb,bbaa} / +{abba,baab} / +{abab,baba} at preemption bounds
   0 / 1 / 2. *)

let two_tas =
  let* _ = Program.tas_name 0 in
  let* _ = Program.tas_name 0 in
  Program.return None

let conflict_target =
  target ~label:"two-tas" ~n:2 (fun () -> instance ~namespace:1 ~label:"two-tas" [| two_tas; two_tas |])

let disjoint_target =
  (* p0 touches name 0 and aux bit 0, p1 name 1 and aux bit 1: every
     pair of operations commutes, so of the 6 interleavings only the
     Mazurkiewicz representatives need exploring.  Each process wins
     one name (the second TAS is on an aux bit): a one-shot process
     that won two names would be a spec violation (double-hold). *)
  let proc i =
    let* _ = Program.tas_name i in
    let* _ = Program.tas_aux i in
    Program.return None
  in
  target ~label:"disjoint" ~n:2 (fun () ->
      {
        Executor.memory = Memory.create ~namespace:2 ~aux:2 ();
        programs = [| proc 0; proc 1 |];
        label = "disjoint";
      })

let test_schedule_counts_match_enumeration () =
  List.iter
    (fun (preemptions, expected) ->
      (* The unpruned enumerator... *)
      let stats = Mcheck.enumerate ~seed:0L ~bounds:(bounds ~preemptions ()) conflict_target in
      check Alcotest.int
        (Printf.sprintf "unpruned bound %d" preemptions)
        expected stats.Mcheck.s_schedules;
      check Alcotest.int "no violations" 0 stats.Mcheck.s_violations;
      (* ...and source-DPOR must land on exactly the same analytic
         vector: with every operation pair dependent there is nothing to
         reduce, only races to reverse within the preemption budget. *)
      let stats = Mcheck.check ~seed:0L ~bounds:(bounds ~preemptions ()) conflict_target in
      check Alcotest.int
        (Printf.sprintf "dpor bound %d" preemptions)
        expected stats.Mcheck.s_schedules;
      check Alcotest.int "no violations (dpor)" 0 stats.Mcheck.s_violations)
    [ (0, 2); (1, 4); (2, 6) ];
  (* With every operation pair commuting, the enumerator still walks
     all 6 interleavings, while DPOR finds no race and explores one. *)
  let unpruned = Mcheck.enumerate ~seed:0L ~bounds:(bounds ~preemptions:2 ()) disjoint_target in
  check Alcotest.int "unpruned count is the full interleaving count" 6
    unpruned.Mcheck.s_schedules;
  let dpor = Mcheck.check ~seed:0L ~bounds:(bounds ~preemptions:2 ()) disjoint_target in
  check Alcotest.int "dpor explores a single representative" 1 dpor.Mcheck.s_schedules;
  check Alcotest.int "dpor detects no races" 0 dpor.Mcheck.s_races;
  check Alcotest.int "no violations (dpor)" 0 dpor.Mcheck.s_violations

(* --- a seeded broken algorithm is found and shrunk --- *)

(* Check-then-act double claim: correct solo, broken when the two reads
   interleave before either TAS lands. *)
let racy_claim =
  let* set = Program.read_name 0 in
  if set then Program.return None
  else
    let* _won = Program.tas_name 0 in
    Program.return (Some 0)

(* In [Returns] mode the second return is a grant of a name the first
   process holds. *)
let broken_target =
  target ~mode:Monitor.Returns ~label:"broken-double-claim" ~n:2 (fun () ->
      instance ~namespace:2 ~label:"broken-double-claim" [| racy_claim; racy_claim |])

let test_mcheck_finds_and_shrinks_double_claim () =
  List.iter
    (fun explore ->
      let stats = explore broken_target in
      check Alcotest.bool
        (Printf.sprintf "violations found (%s)" stats.Mcheck.s_engine)
        true
        (stats.Mcheck.s_violations > 0);
      match stats.Mcheck.s_cases with
      | [] -> Alcotest.fail "no case recorded"
      | c :: _ -> (
        check Alcotest.string "kind" "refine:name-held" c.Mcheck.v_kind;
        match c.Mcheck.v_shrunk with
        | None -> Alcotest.fail "violation was not shrunk"
        | Some r ->
          (* 1-minimal: read of one process, then a context switch to
             the other's read.  Exactly two choices. *)
          check Alcotest.int "minimal counterexample" 2 (List.length r.Shrink.r_choices);
          check Alcotest.string "same failure after shrinking" "refine:name-held"
            r.Shrink.r_failure.Shrink.f_kind;
          (* The minimal trace replays deterministically. *)
          let input =
            {
              Shrink.target = broken_target;
              seed = 0L;
              choices = r.Shrink.r_choices;
              max_ticks = 1_000;
              tau_cadence = 1;
            }
          in
          let kind () =
            match Shrink.execute input r.Shrink.r_choices with
            | _, Some f -> f.Shrink.f_kind
            | _, None -> "no-failure"
          in
          check Alcotest.string "replays" "refine:name-held" (kind ());
          check Alcotest.string "deterministically" (kind ()) (kind ())))
    [
      Mcheck.check ~seed:0L ~bounds:(bounds ~preemptions:2 ());
      Mcheck.enumerate ~seed:0L ~bounds:(bounds ~preemptions:2 ());
    ]

(* --- the fault branch: a claim based on a faulted TAS --- *)

let fault_claimer =
  (* One attempt, then claim regardless: correct in fault-free runs
     (solo TAS always wins), unbacked when the TAS is faulted. *)
  Program.Step (Op.Tas_name 0, fun _ -> Program.Done (Some 0))

let fault_target =
  target ~label:"fault-claimer" ~n:1 (fun () ->
      instance ~namespace:1 ~label:"fault-claimer" [| fault_claimer |])

let test_mcheck_fault_injection_finds_unbacked_claim () =
  (* Without a fault budget the instance is clean... *)
  let clean = Mcheck.check ~seed:0L ~bounds:(bounds ~preemptions:1 ()) fault_target in
  check Alcotest.int "fault-free: no violations" 0 clean.Mcheck.s_violations;
  (* ...with one injectable fault the checker must find the unbacked
     claim and shrink it to the single Fault decision. *)
  let stats = Mcheck.check ~seed:0L ~bounds:(bounds ~preemptions:1 ~faults:1 ()) fault_target in
  check Alcotest.bool "violation found" true (stats.Mcheck.s_violations > 0);
  match stats.Mcheck.s_cases with
  | { Mcheck.v_kind = "refine:claim-unbacked"; v_shrunk = Some r; _ } :: _ ->
    check Alcotest.bool "minimal trace is the single fault" true
      (r.Shrink.r_choices = [ Directed.Fault 0 ])
  | c :: _ -> Alcotest.failf "unexpected first case kind %s" c.Mcheck.v_kind
  | [] -> Alcotest.fail "no case recorded"

(* --- crash/recovery decisions explore without false positives --- *)

let test_mcheck_crash_recovery_clean () =
  let scans =
    target ~label:"scan-crash" ~n:2 (fun () ->
        instance ~namespace:2 ~label:"scan-crash"
          [| Program.scan_names ~first:0 ~count:2; Program.scan_names ~first:0 ~count:2 |])
  in
  let pure = Mcheck.check ~seed:0L ~bounds:(bounds ~preemptions:1 ()) scans in
  let crashy = Mcheck.check ~seed:0L ~bounds:(bounds ~preemptions:1 ~crashes:1 ~recoveries:1 ()) scans in
  check Alcotest.int "pure schedules clean" 0 pure.Mcheck.s_violations;
  check Alcotest.int "crash/recovery schedules clean" 0 crashy.Mcheck.s_violations;
  check Alcotest.bool "crash decisions widen the tree" true
    (crashy.Mcheck.s_schedules > pure.Mcheck.s_schedules)

(* --- race detection on hand-built traces ---

   The DPOR engine's correctness reduces to [Races] reporting exactly
   the reversible races of an execution, so these pin the relation on
   traces small enough to enumerate by hand. *)

let tas i = Op.Tas_name i

let sorted_races rs =
  List.sort compare (List.map (fun r -> (r.Races.r_first, r.Races.r_second)) rs)

let test_races_hand_built () =
  (* Two adjacent dependent steps of different pids: one race. *)
  let _, rs =
    Races.races ~pids:2 [| Races.step ~pid:0 (tas 0); Races.step ~pid:1 (tas 0) |]
  in
  check Alcotest.(list (pair int int)) "adjacent conflict races" [ (0, 1) ] (sorted_races rs);
  (* Same pid is program order, never a race. *)
  let _, rs =
    Races.races ~pids:2 [| Races.step ~pid:0 (tas 0); Races.step ~pid:0 (tas 0) |]
  in
  check Alcotest.(list (pair int int)) "program order" [] (sorted_races rs);
  (* Independent operations never race. *)
  let _, rs =
    Races.races ~pids:2 [| Races.step ~pid:0 (tas 0); Races.step ~pid:1 (tas 1) |]
  in
  check Alcotest.(list (pair int int)) "disjoint registers" [] (sorted_races rs);
  (* A happens-before chain through a middle conflicting step makes the
     outer pair non-reversible: only the two adjacent races remain. *)
  let _, rs =
    Races.races ~pids:3
      [| Races.step ~pid:0 (tas 0); Races.step ~pid:1 (tas 0); Races.step ~pid:2 (tas 0) |]
  in
  check Alcotest.(list (pair int int)) "hb chain blocks outer pair" [ (0, 1); (1, 2) ]
    (sorted_races rs);
  (* An injection barrier is dependent with everything: no race is ever
     detected across it, in either direction. *)
  let _, rs =
    Races.races ~pids:3
      [| Races.step ~pid:0 (tas 0); Races.barrier ~pid:1; Races.step ~pid:2 (tas 0) |]
  in
  check Alcotest.(list (pair int int)) "barrier blocks races" [] (sorted_races rs);
  (* [from] skips races already handled on the explored prefix. *)
  let events =
    [| Races.step ~pid:0 (tas 0); Races.step ~pid:1 (tas 0); Races.step ~pid:0 (tas 1);
       Races.step ~pid:1 (tas 1) |]
  in
  let _, all = Races.races ~pids:2 events in
  let _, tail = Races.races ~from:3 ~pids:2 events in
  check Alcotest.(list (pair int int)) "all races" [ (0, 1); (2, 3) ] (sorted_races all);
  check Alcotest.(list (pair int int)) "from skips settled prefix" [ (2, 3) ]
    (sorted_races tail)

let test_races_witness () =
  (* p1's independent step between the racing pair is not ordered after
     the race's first event, so the witness carries it along. *)
  let events =
    [| Races.step ~pid:0 (tas 0); Races.step ~pid:1 (tas 1); Races.step ~pid:1 (tas 0) |]
  in
  let clocks, rs = Races.races ~pids:2 events in
  check Alcotest.(list (pair int int)) "one race" [ (0, 2) ] (sorted_races rs);
  let r = List.hd rs in
  check Alcotest.(list int) "witness keeps the independent step" [ 1; 2 ]
    (Races.witness ~clocks events r);
  (* Same shape, but the middle step belongs to the first event's pid:
     program order puts it after the race, so the witness is just the
     second event. *)
  let events =
    [| Races.step ~pid:0 (tas 0); Races.step ~pid:0 (tas 1); Races.step ~pid:1 (tas 0) |]
  in
  let clocks, rs = Races.races ~pids:2 events in
  check Alcotest.(list (pair int int)) "one race" [ (0, 2) ] (sorted_races rs);
  check Alcotest.(list int) "witness drops hb-after events" [ 2 ]
    (Races.witness ~clocks events (List.hd rs))

let test_races_clocks () =
  let events =
    [| Races.step ~pid:0 (tas 0); Races.step ~pid:1 (tas 1); Races.step ~pid:1 (tas 0) |]
  in
  let clocks = Races.clocks ~pids:2 events in
  let hb = Races.happens_before ~clocks events in
  check Alcotest.bool "reflexive" true (hb 1 1);
  check Alcotest.bool "program order" true (hb 1 2);
  check Alcotest.bool "dependence order" true (hb 0 2);
  check Alcotest.bool "independent steps unordered" false (hb 0 1)

(* --- wakeup-tree invariants --- *)

let test_wakeup_insert_and_order () =
  let t = Wakeup.create () in
  check Alcotest.bool "fresh tree empty" true (Wakeup.is_empty t);
  check Alcotest.bool "empty sequence covered" true
    (Wakeup.insert t [] = Wakeup.Covered);
  check Alcotest.bool "first sequence inserted" true
    (Wakeup.insert t [ (0, tas 0) ] = Wakeup.Inserted);
  check Alcotest.bool "duplicate covered" true
    (Wakeup.insert t [ (0, tas 0) ] = Wakeup.Covered);
  check Alcotest.bool "second sequence inserted" true
    (Wakeup.insert t [ (1, tas 1) ] = Wakeup.Inserted);
  (* Branch order is insertion order, never rearranged. *)
  check Alcotest.(list int) "insertion order preserved" [ 0; 1 ]
    (List.map (fun b -> b.Wakeup.b_pid) (Wakeup.branches t));
  check Alcotest.int "size counts every branch" 2 (Wakeup.size t);
  (match Wakeup.pop t with
  | Some b -> check Alcotest.int "pop is leftmost" 0 b.Wakeup.b_pid
  | None -> Alcotest.fail "pop on non-empty tree");
  check Alcotest.(list int) "pop removes the branch" [ 1 ]
    (List.map (fun b -> b.Wakeup.b_pid) (Wakeup.branches t))

let test_wakeup_weak_initial_coverage () =
  (* A sequence whose weak initial matches an existing leaf is covered:
     the scheduled branch already reaches an equivalent state. *)
  let t = Wakeup.create () in
  check Alcotest.bool "seed branch" true (Wakeup.insert t [ (0, tas 0) ] = Wakeup.Inserted);
  check Alcotest.bool "weak-initial-equivalent covered" true
    (Wakeup.insert t [ (1, tas 1); (0, tas 0) ] = Wakeup.Covered);
  (* A dependent chain is NOT equivalent and must be planted whole. *)
  let t = Wakeup.create () in
  check Alcotest.bool "chain inserted" true
    (Wakeup.insert t [ (0, tas 0); (1, tas 0) ] = Wakeup.Inserted);
  check Alcotest.int "chain is nested" 2 (Wakeup.size t);
  check Alcotest.bool "prefix of a chain covered" true
    (Wakeup.insert t [ (0, tas 0) ] = Wakeup.Covered);
  (* The reversal is a genuinely new state: appended to the right. *)
  check Alcotest.bool "reversal inserted" true
    (Wakeup.insert t [ (1, tas 0); (0, tas 0) ] = Wakeup.Inserted);
  check Alcotest.(list int) "reversal appended rightmost" [ 0; 1 ]
    (List.map (fun b -> b.Wakeup.b_pid) (Wakeup.branches t))

let test_wakeup_weak_initials () =
  (* The first event of each pid counts while everything before it is
     independent; a dependent predecessor blocks it. *)
  let seq = [ (1, tas 1); (0, tas 0); (2, tas 1) ] in
  check Alcotest.(list int) "weak initial pids" [ 1; 0 ]
    (List.map fst (Wakeup.weak_initials seq));
  check Alcotest.bool "the first event is a weak initial" true
    (Wakeup.weak_initial_mem seq ~pid:1 ~op:(tas 1));
  check Alcotest.bool "an independent later event is a weak initial" true
    (Wakeup.weak_initial_mem seq ~pid:0 ~op:(tas 0));
  check Alcotest.bool "a dependent later event is not" false
    (Wakeup.weak_initial_mem seq ~pid:2 ~op:(tas 1))

(* --- DPOR never revisits a schedule --- *)

let test_dpor_schedules_unique () =
  List.iter
    (fun (label, tgt, b) ->
      let seen = Hashtbl.create 64 in
      let dups = ref 0 in
      let on_schedule choices =
        let key =
          String.concat ";"
            (Array.to_list (Array.map Directed.choice_to_string choices))
        in
        if Hashtbl.mem seen key then incr dups else Hashtbl.add seen key ();
      in
      let stats = Mcheck.check ~seed:0L ~bounds:b ~shrink:false ~on_schedule tgt in
      check Alcotest.int (label ^ ": no schedule revisited") 0 !dups;
      check Alcotest.int
        (label ^ ": every counted schedule distinct")
        stats.Mcheck.s_schedules (Hashtbl.length seen))
    [
      ("two-tas", conflict_target, bounds ~preemptions:2 ());
      ("broken-double-claim", broken_target, bounds ~preemptions:2 ());
      ("fault-claimer", fault_target, bounds ~preemptions:1 ~faults:1 ());
    ]

(* --- differential: random programs, identical verdicts ---

   DPOR and the unpruned enumerator bound preemptions with the same
   cost model, so with a budget generous enough to cover every
   interleaving of these small programs they must agree on whether a
   violation exists — and DPOR must never explore more schedules than
   the enumerator. *)

let qcheck_engine_differential =
  let build_proc (ops, (tail_kind, reg)) =
    let tail =
      match tail_kind mod 3 with
      | 0 -> Program.return None
      | 1 ->
        (* check-then-act double claim: racy by construction *)
        let* set = Program.read_name reg in
        if set then Program.return None
        else
          let* _won = Program.tas_name reg in
          Program.return (Some reg)
      | _ ->
        let* won = Program.tas_name reg in
        Program.return (if won then Some reg else None)
    in
    List.fold_right
      (fun (kind, r) acc ->
        match kind mod 3 with
        | 0 ->
          let* _ = Program.tas_name r in
          acc
        | 1 ->
          let* _ = Program.read_name r in
          acc
        | _ ->
          let* () = Program.yield in
          acc)
      ops tail
  in
  let proc_gen =
    QCheck.(
      pair
        (list_of_size (QCheck.Gen.int_bound 3) (pair (int_bound 2) (int_bound 1)))
        (pair (int_bound 2) (int_bound 1)))
  in
  QCheck.Test.make ~count:30 ~name:"dpor and legacy dfs agree on random programs"
    QCheck.(pair proc_gen proc_gen)
    (fun (spec0, spec1) ->
      let tgt =
        target ~label:"differential" ~n:2 (fun () ->
            instance ~namespace:2 ~label:"differential"
              [| build_proc spec0; build_proc spec1 |])
      in
      let b = bounds ~preemptions:10 () in
      let dpor = Mcheck.check ~seed:0L ~bounds:b ~shrink:false tgt in
      let unpruned = Mcheck.enumerate ~seed:0L ~bounds:b ~shrink:false tgt in
      if (dpor.Mcheck.s_violations > 0) <> (unpruned.Mcheck.s_violations > 0) then
        QCheck.Test.fail_reportf "verdicts differ: dpor %d vs unpruned %d violations"
          dpor.Mcheck.s_violations unpruned.Mcheck.s_violations;
      if dpor.Mcheck.s_schedules > unpruned.Mcheck.s_schedules then
        QCheck.Test.fail_reportf "dpor explored %d schedules > %d unpruned"
          dpor.Mcheck.s_schedules unpruned.Mcheck.s_schedules;
      true)

(* --- the roster --- *)

let test_roster_tier1_clean () =
  List.iter
    (fun e ->
      let stats = Roster.run_entry e in
      check Alcotest.int (e.Roster.e_target.Renaming_faults.Target.name ^ ": zero violations") 0 stats.Mcheck.s_violations;
      check Alcotest.int (e.Roster.e_target.Renaming_faults.Target.name ^ ": zero livelocks") 0 stats.Mcheck.s_livelocks;
      check Alcotest.bool (e.Roster.e_target.Renaming_faults.Target.name ^ ": explored") true (stats.Mcheck.s_schedules > 0);
      check Alcotest.bool (e.Roster.e_target.Renaming_faults.Target.name ^ ": exhaustive (not capped)") true
        (not stats.Mcheck.s_capped))
    (Roster.tier1 ())

let test_roster_deterministic_json () =
  match Roster.tier1 () with
  | [] -> Alcotest.fail "empty tier-1 roster"
  | e :: _ ->
    let go () = Renaming_obs.Json.to_document (Mcheck.to_json [ Roster.run_entry e ]) in
    check Alcotest.string "identical stats json" (go ()) (go ())

(* [Replay.find] is the one lookup [renaming shrink] resolves an
   artifact's target through. *)
let test_roster_builder_resolves () =
  let find = Renaming_harness.Replay.find in
  check Alcotest.bool "roster entry resolves" true (find ~name:"uniform-probing-n3" ~n:3 <> None);
  check Alcotest.bool "chaos algorithm resolves" true (find ~name:"loose-geometric" ~n:16 <> None);
  check Alcotest.bool "fuzz mutant resolves" true (find ~name:"mutant-double-claim" ~n:3 <> None);
  check Alcotest.bool "wrong n rejected" true (find ~name:"uniform-probing-n3" ~n:4 = None);
  check Alcotest.bool "unknown name rejected" true (find ~name:"no-such" ~n:4 = None)

let tests =
  [
    ( "mcheck.directed",
      [
        Alcotest.test_case "strict divergence" `Quick test_directed_strict_divergence;
        Alcotest.test_case "permissive drops" `Quick test_directed_permissive_drops;
        Alcotest.test_case "same prefix, same execution" `Quick
          test_directed_same_prefix_same_execution;
      ] );
    ( "mcheck.explore",
      [
        Alcotest.test_case "schedule counts match enumeration" `Quick
          test_schedule_counts_match_enumeration;
        Alcotest.test_case "finds and shrinks double claim" `Quick
          test_mcheck_finds_and_shrinks_double_claim;
        Alcotest.test_case "fault injection finds unbacked claim" `Quick
          test_mcheck_fault_injection_finds_unbacked_claim;
        Alcotest.test_case "crash/recovery exploration clean" `Quick
          test_mcheck_crash_recovery_clean;
      ] );
    ( "mcheck.races",
      [
        Alcotest.test_case "hand-built traces" `Quick test_races_hand_built;
        Alcotest.test_case "reordering witnesses" `Quick test_races_witness;
        Alcotest.test_case "vector clocks" `Quick test_races_clocks;
      ] );
    ( "mcheck.wakeup",
      [
        Alcotest.test_case "insert and branch order" `Quick test_wakeup_insert_and_order;
        Alcotest.test_case "weak-initial coverage" `Quick test_wakeup_weak_initial_coverage;
        Alcotest.test_case "weak initials" `Quick test_wakeup_weak_initials;
      ] );
    ( "mcheck.dpor",
      [
        Alcotest.test_case "no schedule revisited" `Quick test_dpor_schedules_unique;
        QCheck_alcotest.to_alcotest qcheck_engine_differential;
      ] );
    ( "mcheck.roster",
      [
        Alcotest.test_case "tier-1 roster clean" `Slow test_roster_tier1_clean;
        Alcotest.test_case "deterministic json" `Quick test_roster_deterministic_json;
        Alcotest.test_case "builder resolves names" `Quick test_roster_builder_resolves;
      ] );
  ]
