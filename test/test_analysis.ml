(* Tests for the static-analysis layer: the audited footprint table,
   the commutation oracle (shipped table passes, seeded misdeclarations
   are caught), the dynamic coverage audit, and the source lint with
   its waiver syntax. *)

module Op = Renaming_sched.Op
module Memory = Renaming_sched.Memory
module Footprint = Renaming_analysis.Footprint
module Commute = Renaming_analysis.Commute
module Lint = Renaming_analysis.Lint
module Analyze = Renaming_analysis.Analyze
module Unused_export = Renaming_analysis.Unused_export
module Json = Renaming_obs.Json
module Roster = Renaming_harness.Mcheck_roster

let check = Alcotest.check

let roster_instances () =
  List.map
    (fun e ->
      let t = e.Roster.e_target in
      (t.Renaming_faults.Target.name, fun () -> t.Renaming_faults.Target.build ~seed:e.Roster.e_seed))
    (Roster.roster ())

(* --- the footprint table itself --- *)

let representatives = Op.representatives ~idx:0 ~value:1 @ Op.representatives ~idx:1 ~value:2

let test_footprint_symmetric_and_irreflexive_on_writes () =
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          check Alcotest.bool "symmetric" (Footprint.independent a b) (Footprint.independent b a))
        representatives;
      (* No operation that writes may commute with itself on the same
         cell; reads may. *)
      match Footprint.of_op a with
      | Footprint.Cell { writes = true; _ } ->
        check Alcotest.bool "write not self-independent" false (Footprint.independent a a)
      | _ -> ())
    representatives

let test_footprint_known_relations () =
  let indep = Footprint.independent in
  check Alcotest.bool "same-cell TAS conflict" false (indep (Op.Tas_name 0) (Op.Tas_name 0));
  check Alcotest.bool "disjoint TAS commute" true (indep (Op.Tas_name 0) (Op.Tas_name 1));
  check Alcotest.bool "same-cell reads commute" true (indep (Op.Read_name 0) (Op.Read_name 0));
  check Alcotest.bool "read vs TAS conflict" false (indep (Op.Read_name 0) (Op.Tas_name 0));
  check Alcotest.bool "cross-region commute" true (indep (Op.Tas_name 0) (Op.Tas_aux 0));
  check Alcotest.bool "yield commutes with all" true (indep Op.Yield (Op.Tas_name 0));
  check Alcotest.bool "device commutes with nothing" false
    (indep (Op.Tau_poll 0) (Op.Read_word 3));
  check Alcotest.bool "device vs device conflict" false
    (indep (Op.Tau_submit { reg = 0; bit = 0 }) (Op.Tau_poll 1))

let test_representatives_cover_all_constructors () =
  let tags = List.sort_uniq compare (List.map Op.tag (Op.representatives ~idx:0 ~value:1)) in
  check Alcotest.int "every constructor represented" Op.n_tags (List.length tags)

(* --- the commutation oracle --- *)

let test_shipped_table_passes_pairwise_audit () =
  let audit = Commute.audit_pairs () in
  check Alcotest.bool "pairs executed" true (audit.Commute.a_checked > 500);
  check (Alcotest.list Alcotest.string) "no failures" []
    (List.map (fun f -> f.Commute.f_detail) audit.Commute.a_failures)

let test_broken_table_fails_pairwise_audit () =
  let audit = Commute.audit_pairs ~table:Commute.broken_table () in
  check Alcotest.bool "misdeclared TAS caught" true
    (List.exists (fun f -> f.Commute.f_check = "commutation") audit.Commute.a_failures)

let test_device_independence_claim_rejected () =
  (* A table that claims τ-register traffic is Silent must be rejected
     outright — device answers are position-sensitive. *)
  let table (op : Op.t) =
    match op with
    | Op.Tau_submit _ | Op.Tau_poll _ -> Footprint.Silent
    | op -> Footprint.of_op op
  in
  let audit = Commute.audit_pairs ~table () in
  check Alcotest.bool "device independence rejected" true
    (List.exists (fun f -> f.Commute.f_check = "device-independence") audit.Commute.a_failures)

let test_shipped_table_covers_roster_accesses () =
  let audit = Commute.audit_coverage (roster_instances ()) in
  check Alcotest.bool "operations logged" true (audit.Commute.a_checked > 100);
  check (Alcotest.list Alcotest.string) "every access covered" []
    (List.map (fun f -> f.Commute.f_detail) audit.Commute.a_failures)

let test_broken_table_fails_coverage_audit () =
  let audit = Commute.audit_coverage ~table:Commute.broken_table (roster_instances ()) in
  check Alcotest.bool "uncovered write detected" true
    (List.exists (fun f -> f.Commute.f_check = "coverage") audit.Commute.a_failures)

(* --- the dependence-relation audit (the DPOR race predicate) --- *)

let test_dependence_shipped_predicate_passes () =
  let audit = Commute.audit_dependence ~dependent:Renaming_mcheck.Races.dependent () in
  check Alcotest.bool "pairs executed" true (audit.Commute.a_checked > 500);
  check (Alcotest.list Alcotest.string) "no failures" []
    (List.map (fun f -> f.Commute.f_detail) audit.Commute.a_failures)

let test_dependence_everything_independent_rejected () =
  (* A predicate that lets DPOR reorder everything must fail the
     table-agreement, both-orders and device checks. *)
  let audit = Commute.audit_dependence ~dependent:(fun _ _ -> false) () in
  let checks = List.map (fun f -> f.Commute.f_check) audit.Commute.a_failures in
  check Alcotest.bool "table drift caught" true (List.mem "table-agreement" checks);
  check Alcotest.bool "unsound reorderings caught" true (List.mem "race-soundness" checks);
  check Alcotest.bool "device reorderings caught" true (List.mem "device-dependence" checks)

let test_dependence_asymmetry_rejected () =
  let skew a b = Op.tag a < Op.tag b || Renaming_mcheck.Races.dependent a b in
  let audit = Commute.audit_dependence ~dependent:skew () in
  check Alcotest.bool "asymmetric predicate caught" true
    (List.exists (fun f -> f.Commute.f_check = "dependence-symmetry") audit.Commute.a_failures)

let test_dependence_tracks_audited_table () =
  (* Auditing the shipped predicate against a *broken* table must fail
     agreement: the relation DPOR prunes with and the relation that was
     commutation-audited may never drift apart. *)
  let audit =
    Commute.audit_dependence ~table:Commute.broken_table
      ~dependent:Renaming_mcheck.Races.dependent ()
  in
  check Alcotest.bool "drift from audited table caught" true
    (List.exists (fun f -> f.Commute.f_check = "table-agreement") audit.Commute.a_failures)

(* --- the access logger --- *)

let test_access_logger_records_concrete_effects () =
  let mem = Memory.create ~namespace:2 () in
  let log = ref [] in
  Memory.set_access_logger mem (Some (fun ~pid:_ op accesses -> log := (op, accesses) :: !log));
  ignore (Memory.apply mem ~pid:0 (Op.Tas_name 0));
  ignore (Memory.apply mem ~pid:1 (Op.Tas_name 0));
  Memory.set_access_logger mem None;
  ignore (Memory.apply mem ~pid:1 (Op.Tas_name 1));
  match List.rev !log with
  | [ (_, first); (_, second) ] ->
    check Alcotest.int "winning TAS logs read+write" 2 (List.length first);
    check Alcotest.int "losing TAS logs only the read" 1 (List.length second);
    check Alcotest.bool "write is pid-sensitive" true
      (List.exists (fun a -> a.Memory.acc_write && a.Memory.acc_pid_sensitive) first)
  | log -> Alcotest.failf "expected 2 logged operations, got %d" (List.length log)

(* --- the source lint --- *)

let with_temp_source contents f =
  let dir = Filename.temp_file "renaming-lint" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let path = Filename.concat dir "probe.ml" in
  let oc = open_out path in
  output_string oc contents;
  close_out oc;
  Fun.protect
    ~finally:(fun () ->
      Sys.remove path;
      Sys.rmdir dir)
    (fun () -> f path)

(* Lints the directory a probe file sits in, as [analyze --lint-root]
   does. *)
let lint ?whitelist ?print_whitelist path =
  snd (Lint.lint_dir ?whitelist ?print_whitelist (Filename.dirname path))

let rules_of findings = List.sort_uniq compare (List.map (fun f -> f.Lint.l_rule) findings)

let test_lint_flags_each_rule () =
  let source =
    String.concat "\n"
      [
        "let counter = ref 0";
        "let cell = Atomic.make 0";
        "let seed () = Random.self_init ()";
        "let cast (x : int) : bool = Obj.magic x";
        "let h name = Hashtbl.hash name";
        "let now () = Unix.gettimeofday ()";
        "let nap () = Unix.sleepf 0.1";
        "";
      ]
  in
  with_temp_source source (fun path ->
      let findings = lint path in
      check (Alcotest.list Alcotest.string) "every rule fires"
        [ "atomic-outside-shm"; "blocking-sleep"; "global-mutable"; "nondeterministic-rng";
          "obj-magic"; "unstable-hash"; "wall-clock" ]
        (rules_of (Lint.active findings)))

let test_lint_local_mutability_not_flagged () =
  let source =
    "let bump xs =\n  let total = ref 0 in\n  List.iter (fun x -> total := !total + x) xs;\n  !total\n"
  in
  with_temp_source source (fun path ->
      check Alcotest.int "function-local ref is fine" 0 (List.length (lint path)))

let test_lint_waiver_suppresses_but_reports () =
  let source =
    "(* lint: allow wall-clock — timing demo *)\nlet now () = Unix.gettimeofday ()\n"
  in
  with_temp_source source (fun path ->
      let findings = lint path in
      check Alcotest.int "finding still reported" 1 (List.length findings);
      check Alcotest.int "but waived" 0 (List.length (Lint.active findings));
      check Alcotest.bool "marked waived" true (List.for_all (fun f -> f.Lint.l_waived) findings))

let test_lint_waiver_is_rule_specific () =
  let source = "(* lint: allow obj-magic *)\nlet now () = Unix.gettimeofday ()\n" in
  with_temp_source source (fun path ->
      check Alcotest.int "wrong rule does not waive" 1
        (List.length (Lint.active (lint path))))

let test_lint_whitelist_exempts_atomics () =
  let source = "let make () = Atomic.make 0\n" in
  with_temp_source source (fun path ->
      let dir = Filename.basename (Filename.dirname path) in
      check Alcotest.int "whitelisted dir may use Atomic" 0
        (List.length (lint ~whitelist:[ dir ] path));
      check Alcotest.int "otherwise flagged" 1 (List.length (lint path)))

let test_lint_stdout_print_rule () =
  let source = "let report x = Printf.printf \"%d\\n\" x\nlet shout s = print_endline s\n" in
  with_temp_source source (fun path ->
      check (Alcotest.list Alcotest.string) "printing flagged" [ "stdout-print" ]
        (rules_of (lint path));
      check Alcotest.int "both sites reported" 2 (List.length (lint path));
      let dir = Filename.basename (Filename.dirname path) in
      check Alcotest.int "exporter directories may print" 0
        (List.length (lint ~print_whitelist:[ dir ] path)))

let test_lint_stdout_print_waiver () =
  let source = "(* lint: allow stdout-print — progress line *)\nlet go () = print_endline \"hi\"\n" in
  with_temp_source source (fun path ->
      let findings = lint path in
      check Alcotest.int "reported" 1 (List.length findings);
      check Alcotest.int "waived" 0 (List.length (Lint.active findings)))

let test_lint_blocking_sleep_rule () =
  (* Both sleep variants are flagged; the watchdog-style waiver
     suppresses without hiding. *)
  let source = "let nap () = Unix.sleep 1\nlet doze () = Unix.sleepf 0.5\n" in
  with_temp_source source (fun path ->
      check (Alcotest.list Alcotest.string) "sleeps flagged" [ "blocking-sleep" ]
        (rules_of (lint path));
      check Alcotest.int "both sites reported" 2 (List.length (lint path)));
  let waived = "(* lint: allow blocking-sleep — watchdog domain *)\nlet nap () = Unix.sleepf 0.1\n" in
  with_temp_source waived (fun path ->
      let findings = lint path in
      check Alcotest.int "reported" 1 (List.length findings);
      check Alcotest.int "waived" 0 (List.length (Lint.active findings)))

let test_lint_parse_error_is_a_finding () =
  with_temp_source "let let let" (fun path ->
      check (Alcotest.list Alcotest.string) "parse error surfaces" [ "parse-error" ]
        (rules_of (lint path)))

(* --- the unused-export rule, over test/unused_fixture --- *)

(* The typed trees name their sources relative to _build/default, where
   dune copies the sources too.  The test executable lives in
   _build/default/test, so the root is found from it, not from the
   working directory. *)
let build_default = Filename.dirname (Filename.dirname Sys.executable_name)

let fixture =
  {
    Unused_export.src_root = build_default;
    build_root = build_default;
    exports = [ "test/unused_fixture/lib" ];
    users = [ "test/unused_fixture/bin" ];
    tests = [ "test/unused_fixture/test" ];
  }

let summary (f : Lint.finding) = (f.Lint.l_line, f.Lint.l_message, f.Lint.l_waived)

let test_unused_export_fixture () =
  let r = Unused_export.run fixture in
  check Alcotest.int "exported values" 8 r.Unused_export.exported;
  check
    Alcotest.(list (triple int string bool))
    "exactly the expected findings"
    [
      (5, "Fixture.by_test is used only by tests", false);
      (9, "Fixture.hook is used only by tests", true);
      (15, "Fixture.own is used nowhere outside its own module", false);
      (18, "Fixture.never is used nowhere outside its own module", false);
      (1, "waiver matches no finding", false);
    ]
    (List.map summary r.Unused_export.findings);
  check Alcotest.bool "all in the interface" true
    (List.for_all
       (fun f -> f.Lint.l_file = "test/unused_fixture/lib/fixture.mli" && f.Lint.l_rule = "unused-export")
       r.Unused_export.findings)

(* A copy of the fixture's library sources under a scratch root (its
   user and test directories there are empty): one edited since it was
   compiled, one never compiled. *)
let test_unused_export_stale_or_missing_unit_fails () =
  let root = Filename.temp_dir "unused-export" "" in
  let dir = Filename.concat root "test/unused_fixture/lib" in
  let write name contents =
    Out_channel.with_open_bin (Filename.concat dir name) (fun oc -> output_string oc contents)
  in
  let read name =
    In_channel.with_open_bin
      (Filename.concat (Filename.concat build_default "test/unused_fixture/lib") name)
      In_channel.input_all
  in
  List.iter
    (fun d -> ignore (Sys.command (Filename.quote_command "mkdir" [ "-p"; Filename.concat root d ])))
    [ "test/unused_fixture/lib"; "test/unused_fixture/bin"; "test/unused_fixture/test" ];
  Fun.protect
    ~finally:(fun () -> ignore (Sys.command (Filename.quote_command "rm" [ "-rf"; root ])))
    (fun () ->
      write "fixture.mli" (read "fixture.mli");
      write "fixture.ml" (read "fixture.ml" ^ "let edited = ()\n");
      write "extra.ml" "let x = 1\n";
      let r = Unused_export.run { fixture with Unused_export.src_root = root } in
      check
        Alcotest.(list (pair string string))
        "stale and missing units named"
        [
          ("test/unused_fixture/lib/extra.ml", "no compiled unit; run `dune build @check`");
          ("test/unused_fixture/lib/fixture.ml", "compiled unit is stale; run `dune build @check`");
        ]
        (List.map (fun f -> (f.Lint.l_file, f.Lint.l_message)) r.Unused_export.findings);
      check Alcotest.bool "none waivable" true
        (List.for_all (fun f -> not f.Lint.l_waived) r.Unused_export.findings))

(* A root that is not there is an error, not an empty tree that passes. *)
let test_unused_export_missing_root_fails () =
  let missing = Filename.concat build_default "no-such-directory" in
  let raises f =
    match f () with _ -> false | exception Sys_error _ -> true
  in
  check Alcotest.bool "a missing source root" true
    (raises (fun () -> Unused_export.run { fixture with Unused_export.src_root = missing }));
  check Alcotest.bool "a missing build root" true
    (raises (fun () -> Unused_export.run { fixture with Unused_export.build_root = missing }));
  check Alcotest.bool "a missing lint root" true (raises (fun () -> Lint.lint_dir missing))

(* --- the aggregate driver --- *)

(* A field of [Analyze.to_json], looked up on the parsed document. *)
let json_path t path =
  match Json.of_string (Json.to_document (Analyze.to_json t)) with
  | Error e -> Alcotest.fail e
  | Ok doc -> List.fold_left (fun v key -> Option.bind v (Json.member key)) (Some doc) path

let test_analyze_shipped_tree_ok () =
  let result =
    Analyze.run ~dependent:Renaming_mcheck.Races.dependent ~lint_root:None
      ~roster:(roster_instances ()) ()
  in
  check Alcotest.bool "audits pass without lint leg" true (Analyze.ok result);
  check Alcotest.bool "json says ok" true (json_path result [ "ok" ] = Some (Json.Bool true));
  check Alcotest.bool "dependence audit serialised" true
    (Option.bind (json_path result [ "footprint"; "dependence"; "checked" ]) Json.to_int <> None)

let test_analyze_dependence_leg_optional_and_gating () =
  (* Without a predicate the leg is skipped and reported as null... *)
  let skipped = Analyze.run ~lint_root:None ~roster:(roster_instances ()) () in
  check Alcotest.bool "skipped leg does not gate" true (Analyze.ok skipped);
  check Alcotest.bool "null when skipped" true
    (json_path skipped [ "footprint"; "dependence" ] = Some Json.Null);
  (* ...with a broken predicate the whole layer fails. *)
  let broken =
    Analyze.run ~dependent:(fun _ _ -> false) ~lint_root:None ~roster:(roster_instances ()) ()
  in
  check Alcotest.bool "broken predicate fails the layer" false (Analyze.ok broken)

(* The string field [key] of each item of the list at [path]. *)
let json_strings t path key =
  match Option.bind (json_path t path) Json.to_items with
  | None -> []
  | Some items -> List.filter_map (fun item -> Option.bind (Json.member key item) Json.to_str) items

let test_unused_export_gates_analyze () =
  let r = Analyze.run ~lint_root:None ~exports:fixture ~roster:[] () in
  check Alcotest.(option int) "exports counted" (Some 8) r.Analyze.exported;
  check Alcotest.bool "active findings fail the layer" false (Analyze.ok r);
  check Alcotest.bool "findings serialised" true
    (List.mem "unused-export" (json_strings r [ "lint"; "findings" ] "rule"))

let test_analyze_broken_table_fails_and_reports () =
  let result =
    Analyze.run ~table:Commute.broken_table ~lint_root:None ~roster:(roster_instances ()) ()
  in
  check Alcotest.bool "broken table rejected" false (Analyze.ok result);
  check Alcotest.bool "json says not ok" true (json_path result [ "ok" ] = Some (Json.Bool false));
  check Alcotest.bool "failures serialised" true
    (List.mem "commutation" (json_strings result [ "footprint"; "pairs"; "failures" ] "check"))

let tests =
  [
    ( "analysis.footprint",
      [
        Alcotest.test_case "symmetric, writes conflict" `Quick
          test_footprint_symmetric_and_irreflexive_on_writes;
        Alcotest.test_case "known relations" `Quick test_footprint_known_relations;
        Alcotest.test_case "representatives cover constructors" `Quick
          test_representatives_cover_all_constructors;
      ] );
    ( "analysis.commute",
      [
        Alcotest.test_case "shipped table passes pairwise audit" `Quick
          test_shipped_table_passes_pairwise_audit;
        Alcotest.test_case "broken table fails pairwise audit" `Quick
          test_broken_table_fails_pairwise_audit;
        Alcotest.test_case "device independence rejected" `Quick
          test_device_independence_claim_rejected;
        Alcotest.test_case "shipped table covers roster accesses" `Slow
          test_shipped_table_covers_roster_accesses;
        Alcotest.test_case "broken table fails coverage audit" `Slow
          test_broken_table_fails_coverage_audit;
        Alcotest.test_case "access logger records concrete effects" `Quick
          test_access_logger_records_concrete_effects;
      ] );
    ( "analysis.dependence",
      [
        Alcotest.test_case "shipped race predicate passes" `Quick
          test_dependence_shipped_predicate_passes;
        Alcotest.test_case "everything-independent rejected" `Quick
          test_dependence_everything_independent_rejected;
        Alcotest.test_case "asymmetry rejected" `Quick test_dependence_asymmetry_rejected;
        Alcotest.test_case "tracks the audited table" `Quick test_dependence_tracks_audited_table;
      ] );
    ( "analysis.lint",
      [
        Alcotest.test_case "each rule fires" `Quick test_lint_flags_each_rule;
        Alcotest.test_case "local mutability is fine" `Quick test_lint_local_mutability_not_flagged;
        Alcotest.test_case "waiver suppresses but reports" `Quick
          test_lint_waiver_suppresses_but_reports;
        Alcotest.test_case "waiver is rule-specific" `Quick test_lint_waiver_is_rule_specific;
        Alcotest.test_case "whitelist exempts atomics" `Quick test_lint_whitelist_exempts_atomics;
        Alcotest.test_case "stdout-print rule" `Quick test_lint_stdout_print_rule;
        Alcotest.test_case "stdout-print waiver" `Quick test_lint_stdout_print_waiver;
        Alcotest.test_case "blocking-sleep rule" `Quick test_lint_blocking_sleep_rule;
        Alcotest.test_case "parse error is a finding" `Quick test_lint_parse_error_is_a_finding;
      ] );
    ( "analysis.exports",
      [
        Alcotest.test_case "fixture findings" `Quick test_unused_export_fixture;
        Alcotest.test_case "stale or missing unit fails" `Quick
          test_unused_export_stale_or_missing_unit_fails;
        Alcotest.test_case "a missing root fails" `Quick test_unused_export_missing_root_fails;
        Alcotest.test_case "findings gate the layer" `Quick test_unused_export_gates_analyze;
      ] );
    ( "analysis.analyze",
      [
        Alcotest.test_case "shipped tree ok" `Slow test_analyze_shipped_tree_ok;
        Alcotest.test_case "broken table fails and reports" `Slow
          test_analyze_broken_table_fails_and_reports;
        Alcotest.test_case "dependence leg optional and gating" `Slow
          test_analyze_dependence_leg_optional_and_gating;
      ] );
  ]
