(* Tests for the telemetry capability: histogram merge laws, the
   bounded event ring, the JSON emitter/parser pair, exporter
   round-trips and determinism, and the guarantee that threading the
   capability through a run does not change the run itself. *)

module Json = Renaming_obs.Json
module Hist = Renaming_obs.Hist
module Ring = Renaming_obs.Ring
module Metrics = Renaming_obs.Metrics
module Obs = Renaming_obs.Obs
module Export = Renaming_obs.Export
module Tight = Renaming_core.Tight
module Geometric = Renaming_core.Loose_geometric
module Params = Renaming_core.Params
module Report = Renaming_sched.Report
module Combined = Renaming_core.Combined
module Executor = Renaming_sched.Executor
module Adversary = Renaming_sched.Adversary
module Telemetry = Renaming_sched.Telemetry
module Stream = Renaming_rng.Stream

let check = Alcotest.check

(* --- Json: emitter and validating parser --- *)

let roundtrip v = Json.of_string (Json.to_string v)

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("null", Json.Null);
        ("bool", Json.Bool true);
        ("int", Json.Int (-42));
        ("float", Json.Float 1.5);
        ("str", Json.String "a \"quoted\"\nline\twith \\ specials");
        ("list", Json.List [ Json.Int 1; Json.String "x"; Json.Obj [] ]);
      ]
  in
  match roundtrip v with
  | Ok v' -> check Alcotest.bool "round-trips" true (v = v')
  | Error e -> Alcotest.failf "parse failed: %s" e

let test_json_nonfinite_is_null () =
  check Alcotest.string "nan renders null" "null" (Json.to_string (Json.Float nan));
  check Alcotest.string "inf renders null" "null" (Json.to_string (Json.Float infinity))

(* A float prints in its shortest round-tripping spelling: a rounded
   field as its decimals, a full-precision one in 17 digits. *)
let test_json_float_shortest () =
  List.iter
    (fun (f, text) ->
      check Alcotest.string (text ^ " prints shortest") text (Json.to_string (Json.Float f));
      check Alcotest.bool (text ^ " parses back equal") true
        (Json.of_string text = Ok (Json.Float f)))
    [ (0.1, "0.1"); (79.67, "79.67"); (1282.0983137181913, "1282.0983137181913"); (30.0, "30.0") ];
  (* [fixed] rounds as printf's "%.3f" does: 3.0625 is exact, and a tie
     goes to the even digit. *)
  check Alcotest.string "fixed rounds as printf" "3.062" (Json.to_string (Json.fixed 3 3.0625))

let test_json_document_layout () =
  check Alcotest.string "one line per item of a top-level list"
    "{\"a\":1,\"xs\":[\n1,\n{\"b\":[2,3]}\n],\"none\":[]}\n"
    (Json.to_document
       (Json.Obj
          [
            ("a", Json.Int 1);
            ("xs", Json.List [ Json.Int 1; Json.Obj [ ("b", Json.List [ Json.Int 2; Json.Int 3 ]) ] ]);
            ("none", Json.List []);
          ]))

let test_json_rejects_garbage () =
  List.iter
    (fun s ->
      match Json.of_string s with
      | Ok _ -> Alcotest.failf "accepted garbage: %s" s
      | Error _ -> ())
    [ "{"; "[1,"; "truex"; "\"unterminated"; "{\"a\" 1}"; "[1] trailing"; "" ]

(* --- Hist: fixed buckets and merge laws --- *)

let hist_of values =
  let h = Hist.create () in
  List.iter (fun v -> Hist.observe h v) values;
  h

(* Two histograms with the same buckets, counts, sum and maximum. *)
let same a b =
  Hist.bounds a = Hist.bounds b
  && Hist.counts a = Hist.counts b
  && Hist.count a = Hist.count b
  && Hist.sum a = Hist.sum b
  && Hist.max_value a = Hist.max_value b

let value_gen = QCheck.(list_of_size (Gen.int_range 0 60) (int_range 0 3_000_000))

let qcheck_merge_commutative =
  QCheck.Test.make ~count:200 ~name:"hist merge commutes" (QCheck.pair value_gen value_gen)
    (fun (a, b) -> same (Hist.merge (hist_of a) (hist_of b)) (Hist.merge (hist_of b) (hist_of a)))

let qcheck_merge_associative =
  QCheck.Test.make ~count:200 ~name:"hist merge associates"
    (QCheck.triple value_gen value_gen value_gen) (fun (a, b, c) ->
      same
        (Hist.merge (hist_of a) (Hist.merge (hist_of b) (hist_of c)))
        (Hist.merge (Hist.merge (hist_of a) (hist_of b)) (hist_of c)))

let qcheck_merge_conserves =
  QCheck.Test.make ~count:200 ~name:"hist merge conserves count and sum"
    (QCheck.pair value_gen value_gen) (fun (a, b) ->
      let m = Hist.merge (hist_of a) (hist_of b) in
      Hist.count m = List.length a + List.length b
      && Hist.sum m = List.fold_left ( + ) 0 a + List.fold_left ( + ) 0 b)

let test_hist_bucket_placement () =
  let h = Hist.create ~bounds:[| 1; 2; 4 |] () in
  List.iter (Hist.observe h) [ 0; 1; 2; 3; 4; 5; 100 ];
  (* buckets: <=1, <=2, <=4, overflow *)
  check (Alcotest.array Alcotest.int) "bucket counts" [| 2; 1; 2; 2 |] (Hist.counts h);
  check Alcotest.int "max" 100 (Hist.max_value h);
  check Alcotest.int "count" 7 (Hist.count h)

let test_hist_merge_rejects_mismatched_bounds () =
  let a = Hist.create ~bounds:[| 1; 2 |] () in
  let b = Hist.create ~bounds:[| 1; 3 |] () in
  Alcotest.check_raises "bounds must match" (Invalid_argument "Hist.merge: bucket bounds differ")
    (fun () -> ignore (Hist.merge a b))

(* --- Ring: bounded, drop-oldest --- *)

let mk_event i =
  { Ring.ev_ts = i; ev_pid = i mod 4; ev_kind = Ring.Instant; ev_name = "e"; ev_args = [] }

let test_ring_drops_oldest () =
  let r = Ring.create ~capacity:4 () in
  for i = 1 to 10 do
    Ring.add r (mk_event i)
  done;
  check Alcotest.int "length capped" 4 (List.length (Ring.to_list r));
  check Alcotest.int "drops counted" 6 (Ring.dropped r);
  check (Alcotest.list Alcotest.int) "most recent window, oldest first" [ 7; 8; 9; 10 ]
    (List.map (fun e -> e.Ring.ev_ts) (Ring.to_list r))

(* --- Metrics: registry snapshot --- *)

let test_metrics_snapshot_sorted_and_typed () =
  let m = Metrics.create () in
  let c = Metrics.counter m "z/count" in
  Metrics.add c 3;
  Hist.observe (Metrics.histogram m "a/steps") 7;
  Metrics.gauge m "m/load" (fun () -> 0.5);
  check (Alcotest.list Alcotest.string) "sorted names" [ "a/steps"; "m/load"; "z/count" ]
    (List.map fst (Metrics.snapshot m));
  check (Alcotest.option Alcotest.int) "counter readback" (Some 3) (Metrics.find_counter m "z/count");
  check Alcotest.bool "histogram readback" true
    (match Metrics.find_histogram m "a/steps" with Some h -> Hist.count h = 1 | None -> false)

let test_metrics_kind_clash_rejected () =
  let m = Metrics.create () in
  ignore (Metrics.counter m "x");
  (match Metrics.histogram m "x" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "histogram under a counter name must be rejected")

(* --- Export: JSONL round-trip and Chrome trace --- *)

let sample_events =
  [
    { Ring.ev_ts = 0; ev_pid = 0; ev_kind = Ring.Span_begin; ev_name = "round"; ev_args = [ ("round", 1) ] };
    { Ring.ev_ts = 3; ev_pid = 1; ev_kind = Ring.Instant; ev_name = "probe"; ev_args = [ ("target", 9) ] };
    { Ring.ev_ts = 5; ev_pid = 0; ev_kind = Ring.Span_end; ev_name = "round"; ev_args = [] };
  ]

let test_jsonl_roundtrip () =
  match Export.events_of_jsonl (Export.jsonl sample_events) with
  | Ok events -> check Alcotest.bool "events survive" true (events = sample_events)
  | Error e -> Alcotest.failf "jsonl parse failed: %s" e

let trace_of_seeded_run () =
  let obs = Obs.create () in
  let cfg = { Geometric.n = 32; ell = 2 } in
  let instr = Geometric.create_instrumentation ~obs cfg in
  ignore (Geometric.run ~instr ~obs cfg ~seed:42L);
  Export.chrome_trace ~process_name:"test" (Obs.events obs)

let test_chrome_trace_deterministic_and_covering () =
  let t1 = trace_of_seeded_run () and t2 = trace_of_seeded_run () in
  check Alcotest.bool "byte-identical across runs" true (String.equal t1 t2);
  match Json.of_string t1 with
  | Error e -> Alcotest.failf "trace is not valid JSON: %s" e
  | Ok doc -> (
      match Option.bind (Json.member "traceEvents" doc) Json.to_items with
      | None -> Alcotest.fail "missing traceEvents array"
      | Some items ->
          let covered = Hashtbl.create 32 in
          List.iter
            (fun item ->
              match
                ( Option.bind (Json.member "ph" item) Json.to_str,
                  Option.bind (Json.member "tid" item) Json.to_int )
              with
              | Some "M", _ | _, None -> ()
              | Some _, Some tid -> Hashtbl.replace covered tid ()
              | None, _ -> Alcotest.fail "trace event without ph")
            items;
          check Alcotest.int "every pid has a track with events" 32 (Hashtbl.length covered))

(* Corollaries 7 and 9 as [renaming trace -a cor7|cor9 -n 64] runs them
   (seed 42, round robin, memory telemetry attached): their Chrome traces
   are pinned byte for byte, so the stage telemetry (the first phase's
   rounds or phases and give-up, and the [backup] span) cannot drift
   unseen.  The digests are those of the earlier implementation, which
   chained three programs. *)
let corollary_trace variant =
  let obs = Obs.create ~ring_capacity:1_048_576 () in
  let inst =
    Combined.instance ~obs { Combined.n = 64; variant } ~stream:(Stream.create 42L)
  in
  Telemetry.attach ~events:false obs inst.Executor.memory;
  ignore (Executor.run ~obs ~adversary:(Adversary.round_robin ()) inst);
  (Export.chrome_trace ~process_name:inst.Executor.label (Obs.events obs), Obs.metrics obs)

let test_corollary_traces_pinned () =
  List.iter
    (fun (label, variant, prefix, digest, probes) ->
      let trace, metrics = corollary_trace variant in
      check Alcotest.string (label ^ " trace digest") digest (Digest.to_hex (Digest.string trace));
      check
        Alcotest.(option int)
        (label ^ ": first-phase probes only")
        (Some probes)
        (Metrics.find_counter metrics (prefix ^ "/probes")))
    [
      ( "cor7",
        Combined.Geometric { ell = 2 },
        "loose-geometric",
        "90b55b80537e49de13362f3522a97fa4",
        239 );
      ( "cor9",
        Combined.Clustered { ell = 2 },
        "loose-clustered",
        "12e5c43ed99c764723712d2fde2e2a2d",
        675 );
    ]

(* --- the capability must not change the run it observes --- *)

let test_obs_does_not_change_the_run () =
  let params = Params.make ~policy:Params.Mass_conserving ~n:64 () in
  let plain = Tight.run ~params ~seed:11L () in
  let obs = Obs.create () in
  let instr = Tight.create_instrumentation ~obs params in
  let observed = Tight.run ~instr ~obs ~params ~seed:11L () in
  check Alcotest.int "same ticks" plain.Report.ticks observed.Report.ticks;
  check Alcotest.int "same max steps" (Report.max_steps plain) (Report.max_steps observed);
  check Alcotest.bool "same assignment" true
    (plain.Report.assignment.Renaming_shm.Assignment.names
    = observed.Report.assignment.Renaming_shm.Assignment.names);
  check Alcotest.bool "and the observed run actually recorded" true
    (Obs.events obs <> [] && Metrics.find_counter (Obs.metrics obs) "tight/wins" <> None)

let tests =
  [
    ( "obs.json",
      [
        Alcotest.test_case "emit/parse round-trip" `Quick test_json_roundtrip;
        Alcotest.test_case "non-finite floats render null" `Quick test_json_nonfinite_is_null;
        Alcotest.test_case "parser rejects garbage" `Quick test_json_rejects_garbage;
        Alcotest.test_case "floats print shortest" `Quick test_json_float_shortest;
        Alcotest.test_case "results document layout" `Quick test_json_document_layout;
      ] );
    ( "obs.hist",
      [
        QCheck_alcotest.to_alcotest qcheck_merge_commutative;
        QCheck_alcotest.to_alcotest qcheck_merge_associative;
        QCheck_alcotest.to_alcotest qcheck_merge_conserves;
        Alcotest.test_case "bucket placement" `Quick test_hist_bucket_placement;
        Alcotest.test_case "merge rejects mismatched bounds" `Quick
          test_hist_merge_rejects_mismatched_bounds;
      ] );
    ( "obs.ring",
      [ Alcotest.test_case "bounded, drop-oldest" `Quick test_ring_drops_oldest ] );
    ( "obs.metrics",
      [
        Alcotest.test_case "snapshot sorted and typed" `Quick test_metrics_snapshot_sorted_and_typed;
        Alcotest.test_case "kind clash rejected" `Quick test_metrics_kind_clash_rejected;
      ] );
    ( "obs.export",
      [
        Alcotest.test_case "jsonl round-trip" `Quick test_jsonl_roundtrip;
        Alcotest.test_case "chrome trace deterministic, one track per pid" `Quick
          test_chrome_trace_deterministic_and_covering;
        Alcotest.test_case "corollary traces pinned" `Quick test_corollary_traces_pinned;
      ] );
    ( "obs.capability",
      [ Alcotest.test_case "observing does not change the run" `Quick test_obs_does_not_change_the_run ] );
  ]
