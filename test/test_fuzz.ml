(* Tests for the coverage-guided schedule fuzzer: the PCT adversary,
   the interleaving-coverage signature, the corpus, and the campaign
   runner over the seeded-mutant roster. *)

module Pct = Renaming_fuzz.Pct
module Coverage = Renaming_fuzz.Coverage
module Corpus = Renaming_fuzz.Corpus
module Fuzz = Renaming_fuzz.Fuzz
module Fuzz_roster = Renaming_harness.Fuzz_roster
module Adversary = Renaming_sched.Adversary
module Directed = Renaming_sched.Directed
module Memory = Renaming_sched.Memory
module Op = Renaming_sched.Op
module Shrink = Renaming_faults.Shrink
module Xoshiro = Renaming_rng.Xoshiro
module Json = Renaming_obs.Json

let check = Alcotest.check

(* --- PCT adversary --- *)

let view ?(time = 0) ~memory runnable =
  let runnable = Array.of_list runnable in
  {
    Adversary.time;
    runnable_count = Array.length runnable;
    runnable_nth = (fun i -> runnable.(i));
    is_runnable = (fun pid -> Array.exists (Int.equal pid) runnable);
    is_crashed = (fun _ -> false);
    pending_op = (fun _ -> Op.Yield);
    memory;
  }

let schedule_of = function
  | Adversary.Schedule p -> p
  | Adversary.Crash p -> Alcotest.failf "unexpected crash of %d" p
  | Adversary.Recover p -> Alcotest.failf "unexpected recovery of %d" p

let test_pct_depth1_is_stable_priorities () =
  (* depth 1 means zero change points: the same (highest-priority)
     process is scheduled at every decision while it stays runnable. *)
  let memory = Memory.create ~namespace:4 () in
  let v = view ~memory [ 0; 1; 2 ] in
  let a = Pct.adversary ~depth:1 ~n:3 ~k:50 ~rng:(Xoshiro.create 9L) () in
  let first = schedule_of (a.Adversary.decide v) in
  for _ = 1 to 30 do
    check Alcotest.int "stable top priority" first (schedule_of (a.Adversary.decide v))
  done

let test_pct_only_schedules_runnable () =
  let memory = Memory.create ~namespace:4 () in
  let a = Pct.adversary ~depth:3 ~n:4 ~k:10 ~rng:(Xoshiro.create 5L) () in
  for t = 0 to 20 do
    let p = schedule_of (a.Adversary.decide (view ~time:t ~memory [ 2 ])) in
    check Alcotest.int "only runnable pid" 2 p
  done

let test_pct_deterministic () =
  let memory = Memory.create ~namespace:4 () in
  let run () =
    let a = Pct.adversary ~depth:3 ~n:3 ~k:12 ~rng:(Xoshiro.create 77L) () in
    List.init 24 (fun t -> schedule_of (a.Adversary.decide (view ~time:t ~memory [ 0; 1; 2 ])))
  in
  check (Alcotest.list Alcotest.int) "same seed, same schedule" (run ()) (run ())

let test_pct_change_points_preempt () =
  (* Depth 3 over a short horizon must preempt at least once on some
     seed: the scheduled pid changes even though the runnable set does
     not.  (Each individual seed may or may not place its change points
     early; scan a few.) *)
  let memory = Memory.create ~namespace:4 () in
  let preempted seed =
    let a = Pct.adversary ~depth:3 ~n:3 ~k:8 ~rng:(Xoshiro.create seed) () in
    let v = view ~memory [ 0; 1; 2 ] in
    let ps = List.init 8 (fun _ -> schedule_of (a.Adversary.decide v)) in
    List.exists (fun p -> p <> List.hd ps) ps
  in
  check Alcotest.bool "some seed preempts" true
    (List.exists preempted [ 1L; 2L; 3L; 4L; 5L ])

let test_pct_with_crashes_respects_budget () =
  (* The crash-spending variant must crash at most [failures] processes,
     recover each one, and never crash the last runnable process. *)
  let memory = Memory.create ~namespace:4 () in
  let n = 3 in
  let a =
    Pct.with_crashes ~depth:3 ~n ~k:6 ~failures:1 ~recover_after:3 ~rng:(Xoshiro.create 3L) ()
  in
  let crashed = ref [] in
  let crashes = ref 0 and recoveries = ref 0 in
  for t = 0 to 29 do
    let runnable = List.filter (fun p -> not (List.mem p !crashed)) [ 0; 1; 2 ] in
    let runnable = Array.of_list runnable in
    let v =
      {
        Adversary.time = t;
        runnable_count = Array.length runnable;
        runnable_nth = (fun i -> runnable.(i));
        is_runnable = (fun pid -> Array.exists (Int.equal pid) runnable);
        is_crashed = (fun pid -> List.mem pid !crashed);
        pending_op = (fun _ -> Op.Yield);
        memory;
      }
    in
    match a.Adversary.decide v with
    | Adversary.Schedule p -> check Alcotest.bool "scheduled pid runnable" true (v.Adversary.is_runnable p)
    | Adversary.Crash p ->
      check Alcotest.bool "crash leaves a runnable process" true (v.Adversary.runnable_count > 1);
      crashed := p :: !crashed;
      incr crashes
    | Adversary.Recover p ->
      check Alcotest.bool "only crashed pids recover" true (List.mem p !crashed);
      crashed := List.filter (fun q -> q <> p) !crashed;
      incr recoveries
  done;
  check Alcotest.bool "failure budget respected" true (!crashes <= 1);
  check Alcotest.int "every crash recovered" !crashes !recoveries

(* --- coverage signatures --- *)

(* A collector attached to a fresh memory of four words, as the fuzzer
   attaches one: every operation applied to the memory feeds it the
   accesses the operation made. *)
let covered () =
  let memory = Memory.create ~namespace:1 ~words:4 () in
  let c = Coverage.create () in
  Coverage.attach c memory;
  (c, fun ~pid op -> ignore (Memory.apply memory ~pid op))

let edge_count c = List.length (Coverage.edges c)
let write idx = Op.Write_word { idx; value = 1 }

let test_coverage_conflict_edges () =
  let c, apply = covered () in
  (* Same pid touching the same cell twice: no conflict. *)
  apply ~pid:0 (write 0);
  apply ~pid:0 (write 0);
  check Alcotest.int "no self-edge" 0 (edge_count c);
  (* A different pid writing the same cell: one edge. *)
  apply ~pid:1 (write 0);
  check Alcotest.int "write-write conflict" 1 (edge_count c);
  (* Different cell: no interaction. *)
  apply ~pid:1 (write 3);
  check Alcotest.int "distinct cells don't conflict" 1 (edge_count c)

let test_coverage_read_read_no_edge () =
  let c, apply = covered () in
  apply ~pid:0 (Op.Read_word 0);
  apply ~pid:1 (Op.Read_word 0);
  check Alcotest.int "read-read is not a conflict" 0 (edge_count c);
  (* A write after the reads does conflict. *)
  apply ~pid:0 (write 0);
  check Alcotest.int "read-write is" 1 (edge_count c)

let test_coverage_pid_permutation_invariant () =
  (* Edges hash operation shapes, not process identities: relabeling the
     pids must produce the same signature. *)
  let play pids =
    let c, apply = covered () in
    apply ~pid:pids.(0) (write 0);
    apply ~pid:pids.(1) (write 0);
    apply ~pid:pids.(1) (Op.Read_word 1);
    apply ~pid:pids.(0) (write 1);
    Coverage.edges c
  in
  check (Alcotest.list Alcotest.int64) "pid relabeling preserves edges"
    (play [| 0; 1 |])
    (play [| 5; 2 |])

(* --- corpus --- *)

let test_corpus_admission () =
  let c = Corpus.create () in
  check Alcotest.int "fresh edges admit" 2
    (Corpus.observe c ~iteration:0 ~prefix:[ Directed.Step 0 ] [ 1L; 2L ]);
  check Alcotest.int "one entry" 1 (Corpus.size c);
  (* The same edges again — even under a different prefix — are stale. *)
  check Alcotest.int "stale edges don't admit" 0
    (Corpus.observe c ~iteration:1 ~prefix:[ Directed.Step 1 ] [ 2L; 1L ]);
  check Alcotest.int "still one entry" 1 (Corpus.size c);
  check Alcotest.int "partially fresh admits" 1
    (Corpus.observe c ~iteration:2 ~prefix:[ Directed.Step 2 ] [ 2L; 3L ]);
  check Alcotest.int "two entries" 2 (Corpus.size c);
  check Alcotest.int "seen edges accumulate" 3 (Corpus.seen_edges c)

let test_corpus_pick_and_mutate () =
  let rng = Xoshiro.create 11L in
  let c = Corpus.create () in
  check (Alcotest.list Alcotest.string) "empty corpus picks the empty prefix" []
    (List.map Directed.choice_to_string (Corpus.pick c rng));
  ignore (Corpus.observe c ~iteration:0 ~prefix:[ Directed.Step 0; Directed.Step 1 ] [ 1L ]);
  check Alcotest.bool "pick returns the entry" true
    (Corpus.pick c rng = [ Directed.Step 0; Directed.Step 1 ]);
  (* Gated choice kinds never leak into mutants when disallowed. *)
  let base = List.init 6 (fun i -> Directed.Step (i mod 3)) in
  for _ = 1 to 200 do
    let m = Corpus.mutate ~rng ~n:3 ~allow_faults:false ~allow_crashes:false base in
    List.iter
      (fun choice ->
        match choice with
        | Directed.Step _ -> ()
        | c -> Alcotest.failf "disallowed choice %s" (Directed.choice_to_string c))
      m
  done;
  (* With crashes allowed (but faults not), faults still never appear. *)
  for _ = 1 to 200 do
    let m = Corpus.mutate ~rng ~n:3 ~allow_faults:false ~allow_crashes:true base in
    List.iter
      (fun choice ->
        match choice with
        | Directed.Fault _ -> Alcotest.fail "fault choice while disallowed"
        | _ -> ())
      m
  done

(* --- the campaign over the seeded-mutant roster --- *)

let test_fuzzer_finds_all_mutants () =
  let summary = Fuzz.run ~seed:1L ~iterations:200 (Fuzz_roster.mutants ()) in
  check Alcotest.bool "campaign ok" true (Fuzz.ok summary);
  List.iter
    (fun r ->
      check Alcotest.bool (r.Fuzz.r_target ^ " found") true (r.Fuzz.r_violations <> []);
      List.iter
        (fun v ->
          check Alcotest.bool (r.Fuzz.r_target ^ " has a shrunk repro") true (v.Fuzz.v_repro <> None))
        r.Fuzz.r_violations)
    summary.Fuzz.s_results

let test_fuzzer_repros_replay () =
  (* Every shrunk artifact must reproduce its violation when replayed
     through the directed executor against a roster-rebuilt instance —
     the same path `renaming shrink` takes. *)
  let summary = Fuzz.run ~seed:1L ~iterations:200 (Fuzz_roster.mutants ()) in
  let repros = Fuzz.repros summary in
  check Alcotest.int "one repro per mutant"
    (List.length (Fuzz_roster.mutants ()))
    (List.length repros);
  List.iter
    (fun (r : Shrink.repro) ->
      match Renaming_harness.Replay.find ~name:r.Shrink.rp_algorithm ~n:r.Shrink.rp_n with
      | None -> Alcotest.failf "roster cannot rebuild %s" r.Shrink.rp_algorithm
      | Some target ->
        let input =
          {
            Shrink.target;
            seed = r.Shrink.rp_seed;
            choices = r.Shrink.rp_choices;
            max_ticks = r.Shrink.rp_max_ticks;
            tau_cadence = r.Shrink.rp_tau_cadence;
          }
        in
        (match Shrink.execute input r.Shrink.rp_choices with
        | _, Some f ->
          check Alcotest.string (r.Shrink.rp_algorithm ^ " kind") r.Shrink.rp_kind
            f.Shrink.f_kind
        | _, None -> Alcotest.failf "%s repro does not replay" r.Shrink.rp_algorithm))
    repros

let clean_roster () =
  List.filter (fun t -> not t.Fuzz.fz_expect_violation) (Fuzz_roster.roster ())

let test_fuzzer_clean_targets_stay_clean () =
  let clean =
    List.filter (fun t -> t.Fuzz.fz_target.Renaming_faults.Target.name = "linear-scan-n4") (clean_roster ())
  in
  let summary = Fuzz.run ~seed:7L ~iterations:120 clean in
  check Alcotest.bool "clean campaign ok" true (Fuzz.ok summary);
  List.iter
    (fun r -> check Alcotest.int (r.Fuzz.r_target ^ " violation-free") 0
        (List.length r.Fuzz.r_violations))
    summary.Fuzz.s_results

let test_fuzzer_deterministic () =
  let run () =
    Json.to_document (Fuzz.to_json (Fuzz.run ~seed:42L ~iterations:60 (Fuzz_roster.mutants ())))
  in
  check Alcotest.string "same seed, same campaign" (run ()) (run ())

let test_fuzzer_coverage_grows () =
  let summary = Fuzz.run ~seed:1L ~iterations:40 (clean_roster ()) in
  check Alcotest.bool "clean roster ok" true (Fuzz.ok summary);
  List.iter
    (fun r ->
      check Alcotest.int (r.Fuzz.r_target ^ " violation-free") 0 (List.length r.Fuzz.r_violations);
      check Alcotest.bool (r.Fuzz.r_target ^ " has coverage") true (r.Fuzz.r_edges > 0);
      (* The growth curve is ascending in both coordinates and ends at
         the final edge count. *)
      let rec ascending = function
        | a :: (b :: _ as rest) ->
          a.Fuzz.g_iteration < b.Fuzz.g_iteration && a.Fuzz.g_edges < b.Fuzz.g_edges
          && ascending rest
        | _ -> true
      in
      check Alcotest.bool "growth curve ascending" true (ascending r.Fuzz.r_growth);
      match List.rev r.Fuzz.r_growth with
      | last :: _ -> check Alcotest.int "curve ends at edge count" r.Fuzz.r_edges last.Fuzz.g_edges
      | [] -> Alcotest.fail "empty growth curve despite coverage")
    summary.Fuzz.s_results

let test_fuzz_json_shape () =
  let summary = Fuzz.run ~seed:1L ~iterations:40 (Fuzz_roster.mutants ()) in
  match Json.of_string (Json.to_document (Fuzz.to_json summary)) with
  | Error e -> Alcotest.fail e
  | Ok doc ->
    check Alcotest.(option string) "seed" (Some "1") (Option.bind (Json.member "seed" doc) Json.to_str);
    check Alcotest.bool "pct_depth" true
      (Option.bind (Json.member "pct_depth" doc) Json.to_int <> None);
    let targets = Option.value ~default:[] (Option.bind (Json.member "targets" doc) Json.to_items) in
    check Alcotest.int "one object per target" (List.length summary.Fuzz.s_results)
      (List.length targets);
    List.iter
      (fun t ->
        List.iter
          (fun key ->
            check Alcotest.bool ("target has " ^ key) true
              (Option.bind (Json.member key t) Json.to_items <> None))
          [ "coverage_growth"; "violations" ])
      targets

let tests =
  [
    ( "fuzz.pct",
      [
        Alcotest.test_case "depth 1 is stable priorities" `Quick test_pct_depth1_is_stable_priorities;
        Alcotest.test_case "schedules only runnable pids" `Quick test_pct_only_schedules_runnable;
        Alcotest.test_case "deterministic given the rng" `Quick test_pct_deterministic;
        Alcotest.test_case "change points preempt" `Quick test_pct_change_points_preempt;
        Alcotest.test_case "crash variant respects budgets" `Quick
          test_pct_with_crashes_respects_budget;
      ] );
    ( "fuzz.coverage",
      [
        Alcotest.test_case "conflict edges" `Quick test_coverage_conflict_edges;
        Alcotest.test_case "read-read is no conflict" `Quick test_coverage_read_read_no_edge;
        Alcotest.test_case "pid-permutation invariant" `Quick test_coverage_pid_permutation_invariant;
      ] );
    ( "fuzz.corpus",
      [
        Alcotest.test_case "admission on new edges only" `Quick test_corpus_admission;
        Alcotest.test_case "pick and gated mutation" `Quick test_corpus_pick_and_mutate;
      ] );
    ( "fuzz.campaign",
      [
        Alcotest.test_case "finds all seeded mutants" `Quick test_fuzzer_finds_all_mutants;
        Alcotest.test_case "shrunk repros replay" `Quick test_fuzzer_repros_replay;
        Alcotest.test_case "clean targets stay clean" `Quick test_fuzzer_clean_targets_stay_clean;
        Alcotest.test_case "campaign is deterministic" `Quick test_fuzzer_deterministic;
        Alcotest.test_case "coverage grows" `Quick test_fuzzer_coverage_grows;
        Alcotest.test_case "json shape" `Quick test_fuzz_json_shape;
      ] );
  ]
