(* Tests for the refinement layer: the centralized spec's transition
   rules and invariants (unit + qcheck), the announce encoding, the
   executor and lease adapters, the shared telemetry counters, the
   observation-changes-nothing guarantee, and the seeded spec-divergence
   mutant (caught, shrunk, artifact round-trips). *)

module Spec = Renaming_refine.Spec
module Obs_event = Renaming_refine.Obs_event
module Check = Renaming_refine.Check
module Lease_adapter = Renaming_refine.Lease_adapter
module Grant_model = Renaming_refine.Grant_model
module Executor = Renaming_sched.Executor
module Memory = Renaming_sched.Memory
module Adversary = Renaming_sched.Adversary
module Report = Renaming_sched.Report
module Shrink = Renaming_faults.Shrink
module Monitor = Renaming_faults.Monitor
module Target = Renaming_faults.Target
module Campaign = Renaming_faults.Campaign
module Mcheck = Renaming_mcheck.Mcheck
module Fuzz = Renaming_fuzz.Fuzz
module Fuzz_roster = Renaming_harness.Fuzz_roster
module Longlived = Renaming_longlived.Longlived
module Net_churn = Renaming_service.Net_churn
module Transport = Renaming_service.Transport
module Router = Renaming_service.Router
module Obs = Renaming_obs.Obs
module Metrics = Renaming_obs.Metrics

let check = Alcotest.check

let verdict : Spec.verdict Alcotest.testable =
  Alcotest.testable
    (fun fmt -> function
      | `Step -> Format.pp_print_string fmt "Step"
      | `Stutter -> Format.pp_print_string fmt "Stutter"
      | `Reject r -> Format.fprintf fmt "Reject %s" r)
    ( = )

let spec ?(namespace = 4) ?(one_shot = true) () = Spec.create { Spec.namespace; one_shot }

let feed t evs = List.map (Spec.apply t) evs

(* --- Obs_event: announce encoding --- *)

let some_events ~session ~name =
  [
    Obs_event.Invoked { session };
    Obs_event.Granted { session; name };
    Obs_event.Claimed { session; name };
    Obs_event.Released { session; name };
    Obs_event.Crashed { session };
    Obs_event.Recovered { session };
    Obs_event.Reclaimed { session; name };
    Obs_event.Shed { session };
  ]

let test_encode_roundtrip () =
  List.iter
    (fun (session, name) ->
      List.iter
        (fun ev ->
          match Obs_event.decode (Obs_event.encode ev) with
          | Some ev' -> check Alcotest.bool (Format.asprintf "%a" Obs_event.pp ev) true (ev = ev')
          | None -> Alcotest.failf "decode failed: %s" (Format.asprintf "%a" Obs_event.pp ev))
        (some_events ~session ~name))
    [ (0, 0); (1, 5); (4095, 100_000) ]

let test_decode_rejects_garbage () =
  (* Tag 0 is reserved (an untouched register is not an event) and tags
     past the constructor count are malformed. *)
  check Alcotest.bool "zero" true (Obs_event.decode 0 = None);
  List.iter
    (fun tag -> check Alcotest.bool "bad tag" true (Obs_event.decode tag = None))
    [ 9; 10; 15 ]

(* --- Spec: unit transitions --- *)

let test_spec_lifecycle () =
  let t = spec () in
  check (Alcotest.list verdict) "invoke/grant/claim/release"
    [ `Step; `Step; `Stutter; `Step ]
    (feed t
       [
         Obs_event.Invoked { session = 0 };
         Obs_event.Granted { session = 0; name = 1 };
         Obs_event.Claimed { session = 0; name = 1 };
         Obs_event.Released { session = 0; name = 1 };
       ]);
  check Alcotest.int "nothing held" 0 (Spec.held t)

let test_spec_uniqueness () =
  let t = spec () in
  check (Alcotest.list verdict) "second grant of a held name is inexplicable"
    [ `Step; `Step; `Step; `Reject "name-held" ]
    (feed t
       [
         Obs_event.Invoked { session = 0 };
         Obs_event.Granted { session = 0; name = 2 };
         Obs_event.Invoked { session = 1 };
         Obs_event.Granted { session = 1; name = 2 };
       ]);
  check Alcotest.(option int) "holder unchanged" (Some 0) (Spec.holder t ~name:2)

let test_spec_namespace_bound () =
  let t = spec ~namespace:4 () in
  ignore (Spec.apply t (Obs_event.Invoked { session = 0 }));
  check verdict "grant out of range"
    (`Reject "name-out-of-range")
    (Spec.apply t (Obs_event.Granted { session = 0; name = 4 }));
  check verdict "claim out of range"
    (`Reject "name-out-of-range")
    (Spec.apply t (Obs_event.Claimed { session = 0; name = 7 }))

let test_spec_fencing () =
  let t = spec () in
  check verdict "release of an unheld name is the fenced ghost"
    (`Reject "release-not-holder")
    (Spec.apply t (Obs_event.Released { session = 0; name = 1 }));
  check verdict "so is a reclaim"
    (`Reject "reclaim-not-holder")
    (Spec.apply t (Obs_event.Reclaimed { session = 0; name = 1 }));
  check verdict "and an ownership assertion"
    (`Reject "claim-unbacked")
    (Spec.apply t (Obs_event.Claimed { session = 0; name = 1 }))

let test_spec_one_shot_invocation () =
  let t = spec () in
  check verdict "grant needs an invocation"
    (`Reject "grant-without-invoke")
    (Spec.apply t (Obs_event.Granted { session = 0; name = 0 }));
  check (Alcotest.list verdict) "reclaim clears the invocation"
    [ `Step; `Step; `Step ]
    (feed t
       [
         Obs_event.Invoked { session = 0 };
         Obs_event.Granted { session = 0; name = 0 };
         Obs_event.Reclaimed { session = 0; name = 0 };
       ]);
  check verdict "post-reclaim regrant without re-invoke is the seeded bug"
    (`Reject "grant-without-invoke")
    (Spec.apply t (Obs_event.Granted { session = 0; name = 0 }));
  check (Alcotest.list verdict) "re-invoking re-enables the grant"
    [ `Step; `Step ]
    (feed t [ Obs_event.Invoked { session = 0 }; Obs_event.Granted { session = 0; name = 0 } ]);
  check verdict "one claim per one-shot session" (`Reject "double-hold")
    (Spec.apply t (Obs_event.Granted { session = 0; name = 1 }))

let test_spec_lease_mode () =
  (* Lease discipline: no invocation bookkeeping, several live leases
     per session are legal (an abandoned queue ticket can grant after
     the retry already did). *)
  let t = spec ~one_shot:false () in
  check (Alcotest.list verdict) "multi-hold without invocations"
    [ `Step; `Step ]
    (feed t
       [ Obs_event.Granted { session = 0; name = 0 }; Obs_event.Granted { session = 0; name = 1 } ]);
  check verdict "uniqueness still binds" (`Reject "name-held")
    (Spec.apply t (Obs_event.Granted { session = 1; name = 0 }))

let test_spec_lease_mode_forgets_sessions () =
  (* Lease sessions are minted per attempt: one that holds nothing is
     forgotten, so the spec's state is bounded by the names held. *)
  let t = spec ~one_shot:false () in
  check (Alcotest.list verdict) "invoke, grant, release"
    [ `Step; `Step; `Step ]
    (feed t
       [
         Obs_event.Invoked { session = 1 };
         Obs_event.Granted { session = 1; name = 0 };
         Obs_event.Released { session = 1; name = 0 };
       ]);
  check Alcotest.string "nothing left" "holders:\nsessions:" (Spec.snapshot t)

let test_spec_crash_abandons_claims () =
  let t = spec () in
  check (Alcotest.list verdict) "grant, crash"
    [ `Step; `Step; `Step ]
    (feed t
       [
         Obs_event.Invoked { session = 0 };
         Obs_event.Granted { session = 0; name = 0 };
         Obs_event.Crashed { session = 0 };
       ]);
  ignore (Spec.apply t (Obs_event.Invoked { session = 1 }));
  check verdict "the crashed holder's name stays consumed"
    (`Reject "name-held")
    (Spec.apply t (Obs_event.Granted { session = 1; name = 0 }));
  check verdict "no grant while crashed" (`Reject "grant-while-crashed")
    (Spec.apply t (Obs_event.Granted { session = 0; name = 1 }));
  check (Alcotest.list verdict)
    "the recovered re-run may re-discover its old name and win a fresh one"
    [ `Step; `Stutter; `Step ]
    (feed t
       [
         Obs_event.Recovered { session = 0 };
         Obs_event.Claimed { session = 0; name = 0 };
         Obs_event.Granted { session = 0; name = 1 };
       ])

(* --- Spec: qcheck properties --- *)

let event_gen =
  QCheck.Gen.(
    let session = int_range 0 3 in
    (* Names deliberately straddle the namespace bound (4) so the
       generator exercises rejects too. *)
    let name = int_range 0 5 in
    oneof
      [
        map (fun s -> Obs_event.Invoked { session = s }) session;
        map2 (fun s n -> Obs_event.Granted { session = s; name = n }) session name;
        map2 (fun s n -> Obs_event.Claimed { session = s; name = n }) session name;
        map2 (fun s n -> Obs_event.Released { session = s; name = n }) session name;
        map (fun s -> Obs_event.Crashed { session = s }) session;
        map (fun s -> Obs_event.Recovered { session = s }) session;
        map2 (fun s n -> Obs_event.Reclaimed { session = s; name = n }) session name;
        map (fun s -> Obs_event.Shed { session = s }) session;
      ])

let trace_arb =
  QCheck.make
    ~print:(fun evs -> String.concat "; " (List.map (Format.asprintf "%a" Obs_event.pp) evs))
    QCheck.Gen.(list_size (int_range 0 60) event_gen)

let qcheck_spec_deterministic =
  QCheck.Test.make ~name:"spec: same trace, same verdicts, same state" ~count:300 trace_arb
    (fun evs ->
      List.iter
        (fun one_shot ->
          let a = spec ~one_shot () and b = spec ~one_shot () in
          let va = feed a evs and vb = feed b evs in
          if va <> vb then QCheck.Test.fail_report "verdicts diverged";
          if Spec.snapshot a <> Spec.snapshot b then QCheck.Test.fail_report "state diverged")
        [ true; false ];
      true)

let qcheck_spec_invariants =
  (* After every event — accepted, stuttered or rejected — the reachable
     state satisfies the invariants, and a reject changes nothing. *)
  QCheck.Test.make ~name:"spec: invariants hold along every trace, rejects change nothing"
    ~count:300 trace_arb (fun evs ->
      let t = spec () in
      List.iter
        (fun ev ->
          let before = Spec.snapshot t in
          let v = Spec.apply t ev in
          (match v with
          | `Reject _ ->
              if Spec.snapshot t <> before then
                QCheck.Test.fail_report "a rejected event changed the state"
          | `Stutter ->
              if Spec.snapshot t <> before then
                QCheck.Test.fail_report "a stutter changed the state"
          | `Step -> ());
          let held = ref 0 in
          for name = 0 to 3 do
            match Spec.holder t ~name with
            | Some s ->
                incr held;
                if s < 0 || s > 3 then QCheck.Test.fail_report "holder out of session range"
            | None -> ()
          done;
          if Spec.held t <> !held then
            QCheck.Test.fail_report "held count disagrees with the holder map")
        evs;
      true)

(* Timed lease traces over two slices of two names, each of capacity
   1: a rejected event changes nothing, the clock never goes back, and
   no slice ever holds more than its capacity. *)
type timed = Lease of int * int * float | Renew of int * int * float | Use of int * int | Plain of Obs_event.t | Absorb of int * int

let timed_arb =
  let open QCheck.Gen in
  let session = int_range 0 2 and name = int_range 0 3 and time = map float_of_int (int_range 0 6) in
  let op =
    oneof
      [
        map3 (fun s n e -> Lease (s, n, e)) session name time;
        map3 (fun s n e -> Renew (s, n, e)) session name time;
        map2 (fun s n -> Use (s, n)) session name;
        map2 (fun s n -> Plain (Obs_event.Released { session = s; name = n })) session name;
        map2 (fun s n -> Plain (Obs_event.Reclaimed { session = s; name = n })) session name;
        map2 (fun s n -> Absorb (s, n)) session name;
      ]
  in
  QCheck.make (list_size (int_range 0 40) (pair time op))

let qcheck_spec_timed =
  QCheck.Test.make ~name:"spec: timed rejects change nothing, clock and capacity hold" ~count:300
    timed_arb (fun trace ->
      let t = spec ~one_shot:false () in
      let clock = ref neg_infinity in
      List.iter
        (fun (now, op) ->
          let before = Spec.snapshot t in
          let v =
            match op with
            | Lease (session, name, expires) ->
                Spec.lease t ~now ~session ~name ~expires ~slice:(name / 2) ~capacity:1
            | Renew (session, name, expires) -> Spec.renew t ~now ~session ~name ~expires
            | Use (session, name) -> Spec.use t ~now ~session ~name
            | Plain ev -> Spec.at t ~now ev
            | Absorb (session, name) -> Spec.absorb t ~now ~session ~name
          in
          (match v with
          | `Reject _ ->
              if Spec.snapshot t <> before then
                QCheck.Test.fail_report "a rejected timed event changed the state"
          | `Step | `Stutter ->
              if now < !clock then QCheck.Test.fail_report "an event before the clock was accepted";
              clock := now);
          for slice = 0 to 1 do
            let held name = Spec.holder t ~name <> None in
            if held (2 * slice) && held ((2 * slice) + 1) then
              QCheck.Test.fail_report "a slice holds more than its capacity"
          done)
        trace;
      true)

let relabel perm ev =
  let p s = perm.(s) in
  match ev with
  | Obs_event.Invoked { session } -> Obs_event.Invoked { session = p session }
  | Obs_event.Granted { session; name } -> Obs_event.Granted { session = p session; name }
  | Obs_event.Claimed { session; name } -> Obs_event.Claimed { session = p session; name }
  | Obs_event.Released { session; name } -> Obs_event.Released { session = p session; name }
  | Obs_event.Crashed { session } -> Obs_event.Crashed { session = p session }
  | Obs_event.Recovered { session } -> Obs_event.Recovered { session = p session }
  | Obs_event.Reclaimed { session; name } -> Obs_event.Reclaimed { session = p session; name }
  | Obs_event.Shed { session } -> Obs_event.Shed { session = p session }

let qcheck_spec_session_symmetry =
  (* Sessions are interchangeable: relabelling a trace through any
     bijection yields the same verdict sequence, so legal traces are
     closed under pid permutation. *)
  QCheck.Test.make ~name:"spec: verdicts invariant under session permutation" ~count:300
    (QCheck.pair trace_arb (QCheck.make QCheck.Gen.(shuffle_l [ 0; 1; 2; 3 ])))
    (fun (evs, perm_l) ->
      let perm = Array.of_list perm_l in
      List.iter
        (fun one_shot ->
          let a = spec ~one_shot () and b = spec ~one_shot () in
          if feed a evs <> feed b (List.map (relabel perm) evs) then
            QCheck.Test.fail_report "permuted trace produced different verdicts")
        [ true; false ];
      true)

(* --- the announce model under the executor's monitor --- *)

let linear_scan ~n = Renaming_baselines.Linear_scan.instance { Renaming_baselines.Linear_scan.n; m = n }

let refine_count obs name =
  Option.value ~default:0 (Metrics.find_counter (Obs.metrics obs) ("refine/" ^ name))

let monitored_run ?obs ~mode inst =
  let m = Monitor.create ?obs ~mode inst in
  Executor.run ~adversary:(Adversary.round_robin ()) ~on_event:(Monitor.hook m) inst

let test_announce_model_clean_round_robin () =
  (* Fair schedules never let the reclaimer settle first — both the
     clean model and the mutant are clean here, which is exactly why the
     mutant needs the fuzzer (and the spec) to be seen. *)
  List.iter
    (fun (name, inst) ->
      let obs = Obs.create () in
      ignore (monitored_run ~obs ~mode:Monitor.Announce inst);
      check Alcotest.int (name ^ ": no violations") 0 (refine_count obs "violations");
      check Alcotest.bool (name ^ ": announces heard") true
        (refine_count obs "events" > refine_count obs "stutters"))
    [
      ("refine-grant-n2", Grant_model.instance ~n:2 ~seed:0L);
      ("mutant-refine-regrant", Grant_model.instance_regrant ~n:2 ~seed:0L);
    ]

(* --- telemetry counters --- *)

let test_obs_counters () =
  (* Two monitors sharing one registry: the counters are get-or-create
     and accumulate across traces. *)
  let obs = Obs.create () in
  let run_once () =
    ignore (monitored_run ~obs ~mode:Monitor.Tas (linear_scan ~n:3));
    (refine_count obs "events", refine_count obs "stutters")
  in
  let events1, stutters1 = run_once () in
  let events2, stutters2 = run_once () in
  check Alcotest.bool "events counted" true (events1 > 0);
  check Alcotest.int "refine/events accumulate" (2 * events1) events2;
  check Alcotest.int "refine/stutters accumulate" (2 * stutters1) stutters2;
  check Alcotest.(option int) "refine/violations" (Some 0)
    (Metrics.find_counter (Obs.metrics obs) "refine/violations")

(* --- Lease_adapter over the service backend --- *)

(* A single service: churn over a one-shard, one-slice router and a
   perfect transport. *)
let churn_config () =
  Net_churn.make_config ~faults:Transport.perfect ~clients:8 ~sessions_target:150
    ~crash_rate:0.2 ~stale_wakeup:0.25 ~max_attempts:6
    ~router:
      (Router.make_config ~shards:1 ~slices:1 ~slice_capacity:16 ~queue_limit:64
         ~high_water:0.85 ~auto_rebalance:false ())
    ()

let slice_width () = Longlived.namespace_for ~sessions:16 ~epsilon:0.5

let test_lease_adapter_clean_churn () =
  let adapter = Lease_adapter.create ~namespace:(slice_width ()) () in
  let summary =
    Net_churn.run
      ~tap:(Lease_adapter.router_tap adapter ~slice_width:(slice_width ()))
      (churn_config ()) ~seed:7L
  in
  let c = Lease_adapter.check adapter in
  check Alcotest.bool "churn ran" true (summary.Net_churn.sessions >= 150);
  check Alcotest.int "no violations" 0 (Check.violations c);
  check Alcotest.bool "grants heard" true (Check.events c - Check.stutters c > 0);
  check Alcotest.bool "fenced operations and uses stuttered" true (Check.stutters c > 0)

let test_observation_changes_nothing_service () =
  let bare = Net_churn.run (churn_config ()) ~seed:7L in
  let adapter = Lease_adapter.create ~namespace:(slice_width ()) () in
  let tapped =
    Net_churn.run
      ~tap:(Lease_adapter.router_tap adapter ~slice_width:(slice_width ()))
      (churn_config ()) ~seed:7L
  in
  check Alcotest.bool "identical summary" true (bare = tapped)

(* --- the seeded spec-divergence mutant --- *)

let regrant = "mutant-refine-regrant"

let regrant_targets =
  List.filter (fun t -> t.Fuzz.fz_target.Target.name = regrant) (Fuzz_roster.mutants ())

let test_spec_always_on () =
  (* Every executor runner checks against the spec by construction: with
     no extra argument, each one names the re-grant's divergence. *)
  let kind = "refine:grant-without-invoke" in
  let target =
    {
      Target.name = regrant;
      n = 2;
      mode = Monitor.Announce;
      build = (fun ~seed -> Grant_model.instance_regrant ~n:2 ~seed);
    }
  in
  let campaign =
    Campaign.run
      {
        Campaign.algorithms = [ target ];
        adversaries =
          [ { Campaign.adv_name = "round-robin"; make_adversary = (fun ~seed:_ -> Adversary.round_robin ()) } ];
        (* The client crashes after publishing its grant, before its
           settle lock; the reclaimer then reclaims and re-grants. *)
        patterns =
          [
            {
              Campaign.pat_name = "crash-client";
              schedule = (fun ~seed:_ ~n:_ -> [ (7, 0) ]);
              recover_after = (fun ~n:_ -> None);
            };
          ];
        fault_rates = [ 0. ];
        seeds = [| 1L |];
        max_ticks = 1_000;
      }
  in
  check Alcotest.(list string) "Campaign.run" [ kind ]
    (List.concat_map
       (fun c -> List.map (fun r -> r.Shrink.rp_kind) c.Campaign.c_repros)
       campaign.Campaign.cells);
  let fuzz = Fuzz.run ~seed:1L ~iterations:200 regrant_targets in
  check Alcotest.(list string) "Fuzz.run" [ kind ]
    (List.concat_map
       (fun r -> List.map (fun v -> v.Fuzz.v_kind) r.Fuzz.r_violations)
       fuzz.Fuzz.s_results);
  let mcheck = Mcheck.check ~max_cases:1 ~seed:0L target in
  check Alcotest.(list string) "Mcheck.check" [ kind ]
    (List.map (fun c -> c.Mcheck.v_kind) mcheck.Mcheck.s_cases)

let test_refine_mutant_caught_and_shrunk () =
  let summary = Fuzz.run ~seed:1L ~iterations:50 regrant_targets in
  check Alcotest.bool "fuzz campaign ok (mutant found, shrunk)" true (Fuzz.ok summary);
  let v =
    match List.concat_map (fun r -> r.Fuzz.r_violations) summary.Fuzz.s_results with
    | v :: _ -> v
    | [] -> Alcotest.fail "no violation recorded"
  in
  check Alcotest.string "the refinement checker named the divergence"
    "refine:grant-without-invoke" v.Fuzz.v_kind;
  match v.Fuzz.v_repro with
  | None -> Alcotest.fail "violation was not shrunk to a repro"
  | Some r -> (
      check Alcotest.bool "minimal prefix is short" true (List.length r.Shrink.rp_choices <= 16);
      match Shrink.repro_of_string (Shrink.repro_to_string r) with
      | Error e -> Alcotest.failf "artifact does not round-trip: %s" e
      | Ok r' ->
          check Alcotest.string "algorithm survives" r.Shrink.rp_algorithm r'.Shrink.rp_algorithm;
          check Alcotest.string "kind survives" r.Shrink.rp_kind r'.Shrink.rp_kind;
          check Alcotest.bool "choices survive" true (r.Shrink.rp_choices = r'.Shrink.rp_choices))

let tests =
  [
    ( "refine",
      [
        Alcotest.test_case "obs_event: encode/decode round-trip" `Quick test_encode_roundtrip;
        Alcotest.test_case "obs_event: malformed announces rejected" `Quick
          test_decode_rejects_garbage;
        Alcotest.test_case "spec: grant lifecycle" `Quick test_spec_lifecycle;
        Alcotest.test_case "spec: uniqueness" `Quick test_spec_uniqueness;
        Alcotest.test_case "spec: namespace bound" `Quick test_spec_namespace_bound;
        Alcotest.test_case "spec: fencing" `Quick test_spec_fencing;
        Alcotest.test_case "spec: one-shot invocation discipline" `Quick
          test_spec_one_shot_invocation;
        Alcotest.test_case "spec: lease mode forgets an empty session" `Quick
          test_spec_lease_mode_forgets_sessions;
        Alcotest.test_case "spec: lease mode" `Quick test_spec_lease_mode;
        Alcotest.test_case "spec: crash abandons claims" `Quick test_spec_crash_abandons_claims;
        QCheck_alcotest.to_alcotest qcheck_spec_deterministic;
        QCheck_alcotest.to_alcotest qcheck_spec_invariants;
        QCheck_alcotest.to_alcotest qcheck_spec_timed;
        QCheck_alcotest.to_alcotest qcheck_spec_session_symmetry;
        Alcotest.test_case "announce model: clean under fair schedules" `Quick
          test_announce_model_clean_round_robin;
        Alcotest.test_case "telemetry: refine/* counters shared get-or-create" `Quick
          test_obs_counters;
        Alcotest.test_case "lease adapter: churn refines via the audit tap" `Quick
          test_lease_adapter_clean_churn;
        Alcotest.test_case "lease adapter: observation changes nothing" `Quick
          test_observation_changes_nothing_service;
        Alcotest.test_case "mutant: caught, shrunk, artifact round-trips" `Quick
          test_refine_mutant_caught_and_shrunk;
        Alcotest.test_case "spec always on: chaos, fuzz and mcheck name the re-grant" `Quick
          test_spec_always_on;
      ] );
  ]
