module Executor = Renaming_sched.Executor
module Adversary = Renaming_sched.Adversary
module Directed = Renaming_sched.Directed
module Report = Renaming_sched.Report
module Monitor = Renaming_faults.Monitor
module Shrink = Renaming_faults.Shrink
module Target = Renaming_faults.Target
module Stream = Renaming_rng.Stream
module Sample = Renaming_rng.Sample
module Clock = Renaming_clock.Clock
module Obs = Renaming_obs.Obs
module Metrics = Renaming_obs.Metrics
module Json = Renaming_obs.Json

type target = {
  fz_target : Target.t;
  fz_allow_faults : bool;
      (* Fault mutations are only sound for programs routing namespace
         traffic through the fault-aware retry primitives; plain
         primitives treat [Faulted] as a protocol error. *)
  fz_allow_crashes : bool;
  fz_tau_cadence : int;
  fz_max_ticks : int;
  fz_expect_violation : bool;  (* seeded-mutant self-test entries *)
}

type violation = {
  v_kind : string;
  v_message : string;
  v_iteration : int;  (* -1 = the round-robin baseline run *)
  v_mode : string;  (* "baseline", "pct-d<k>", "pct-crash-d<k>", "mutation" *)
  v_repro : Shrink.repro option;
}

type growth_point = { g_iteration : int; g_edges : int }

type target_result = {
  r_target : string;
  r_n : int;
  r_expect_violation : bool;
  r_iterations : int;  (* executed, baseline excluded *)
  r_livelocks : int;
  r_corpus_size : int;
  r_edges : int;
  r_growth : growth_point list;  (* coverage-growth curve, ascending iterations *)
  r_violations : violation list;
}

type summary = {
  s_seed : int64;
  s_depth : int;
  s_iteration_budget : int;
  s_stopped_early : bool;  (* the wall-clock budget cut the campaign short *)
  s_results : target_result list;
}

let target_ok r =
  if r.r_expect_violation then
    r.r_violations <> [] && List.for_all (fun v -> v.v_repro <> None) r.r_violations
  else r.r_violations = []

let ok s = List.for_all target_ok s.s_results

let repros s =
  List.concat_map
    (fun r -> List.filter_map (fun v -> v.v_repro) r.r_violations)
    s.s_results

(* One monitored, coverage-instrumented execution of [target] under
   [drive].  Detaches the logger before returning so instances never
   leak a collector. *)
let observe_run ?obs target ~tseed ~drive =
  let inst = target.fz_target.build ~seed:tseed in
  let cov = Coverage.create () in
  Coverage.attach cov inst.Executor.memory;
  let monitor = Monitor.create ?obs ~mode:target.fz_target.mode inst in
  let verdict = Monitor.judge monitor (drive ~inst ~on_event:(Monitor.hook monitor)) in
  Coverage.detach inst.Executor.memory;
  (verdict, Coverage.edges cov)

let shrink_violation target ~tseed ~prefix =
  Option.map Shrink.to_repro
    (Shrink.shrink
       {
         Shrink.target = target.fz_target;
         seed = tseed;
         choices = prefix;
         max_ticks = target.fz_max_ticks;
         tau_cadence = target.fz_tau_cadence;
       })

let fuzz_target ?obs ~master ~depth ~iterations ~should_stop target =
  (* The instance seed is fixed per target (derived from the campaign
     seed and the target name): corpus prefixes then stay meaningful
     across iterations — only the schedule varies, exactly the
     nondeterminism the fuzzer owns. *)
  let tseed = Int64.logxor (Stream.seed master) (Stream.hash_name target.fz_target.name) in
  let rng = Stream.fork_named master ~name:("fuzz-" ^ target.fz_target.name) in
  let corpus = Corpus.create () in
  let growth = ref [] in
  let livelocks = ref 0 in
  let violations = ref [] in
  let executed = ref 0 in
  let record_coverage ~iteration ~prefix edges =
    if Corpus.observe corpus ~iteration ~prefix edges > 0 then
      growth := { g_iteration = iteration; g_edges = Corpus.seen_edges corpus } :: !growth
  in
  let record_violation ~iteration ~mode ~prefix kind message =
    let repro = shrink_violation target ~tseed ~prefix in
    violations := { v_kind = kind; v_message = message; v_iteration = iteration; v_mode = mode; v_repro = repro } :: !violations
  in
  (* Runs [adversary], collecting its schedule (newest first) into
     [choices]; a choice is kept before the monitor judges its event,
     so a failing step stays in it. *)
  let recorded_executor_run adversary choices ~inst ~on_event =
    let on_event e =
      Option.iter (fun c -> choices := c :: !choices) (Directed.choice_of_event e);
      on_event e
    in
    match
      Executor.run ~tau_cadence:target.fz_tau_cadence ~max_ticks:target.fz_max_ticks ~on_event
        ~adversary inst
    with
    | report -> Directed.Finished report
    | exception e -> Directed.Raised e
  in
  (* Baseline: one fair round-robin run.  It estimates k (the expected
     decision count PCT spreads its change points over) and seeds the
     corpus with the fair schedule's coverage. *)
  let k = ref 32 in
  let baseline = ref [] in
  (match
     observe_run ?obs target ~tseed
       ~drive:(recorded_executor_run (Adversary.round_robin ()) baseline)
   with
  | Monitor.Passed report, edges ->
    k := max 8 report.Report.ticks;
    record_coverage ~iteration:(-1) ~prefix:(List.rev !baseline) edges
  | Monitor.Livelocked report, _ ->
    k := max 8 report.Report.ticks;
    incr livelocks
  | Monitor.Failed v, _ ->
    record_violation ~iteration:(-1) ~mode:"baseline" ~prefix:(List.rev !baseline)
      v.Monitor.kind v.Monitor.message);
  let i = ref 0 in
  while !violations = [] && !i < iterations && not (should_stop ()) do
    let iteration = !i in
    incr i;
    incr executed;
    let mutation_round = iteration mod 4 = 3 && Corpus.size corpus > 0 in
    if mutation_round then begin
      let parent = Corpus.pick corpus rng in
      let child =
        Corpus.mutate ~rng ~n:target.fz_target.n ~allow_faults:target.fz_allow_faults
          ~allow_crashes:target.fz_allow_crashes parent
      in
      let taken = ref [||] in
      let verdict, edges =
        observe_run ?obs target ~tseed ~drive:(fun ~inst ~on_event ->
            let r =
              Directed.run ~max_ticks:target.fz_max_ticks ~tau_cadence:target.fz_tau_cadence
                ~on_event ~prefix:child inst
            in
            taken := r.Directed.taken;
            r.Directed.outcome)
      in
      match verdict with
      | Monitor.Passed _ -> record_coverage ~iteration ~prefix:child edges
      | Monitor.Livelocked _ ->
        incr livelocks;
        record_coverage ~iteration ~prefix:child edges
      | Monitor.Failed v ->
        record_violation ~iteration ~mode:"mutation" ~prefix:(Array.to_list !taken) v.Monitor.kind
          v.Monitor.message
    end
    else begin
      (* PCT round: sweep depths 1..depth, alternating the plain and the
         crash-spending variants (crashes only where the target's
         recovery path is meant to be exercised). *)
      let d = 1 + (iteration / 2 mod depth) in
      let crashing = iteration mod 2 = 1 && target.fz_allow_crashes in
      let adversary =
        if crashing then
          Pct.with_crashes ~depth:d ~n:target.fz_target.n ~k:!k ~failures:1
            ~recover_after:(max 4 (!k / 4)) ~rng ()
        else Pct.adversary ~depth:d ~n:target.fz_target.n ~k:!k ~rng ()
      in
      let mode = adversary.Adversary.name in
      let choices = ref [] in
      let verdict, edges =
        observe_run ?obs target ~tseed ~drive:(recorded_executor_run adversary choices)
      in
      let prefix = List.rev !choices in
      match verdict with
      | Monitor.Passed _ -> record_coverage ~iteration ~prefix edges
      | Monitor.Livelocked _ ->
        incr livelocks;
        record_coverage ~iteration ~prefix edges
      | Monitor.Failed v -> record_violation ~iteration ~mode ~prefix v.Monitor.kind v.Monitor.message
    end
  done;
  {
    r_target = target.fz_target.name;
    r_n = target.fz_target.n;
    r_expect_violation = target.fz_expect_violation;
    r_iterations = !executed;
    r_livelocks = !livelocks;
    r_corpus_size = Corpus.size corpus;
    r_edges = Corpus.seen_edges corpus;
    r_growth = List.rev !growth;
    r_violations = List.rev !violations;
  }

let run ?(clock = Clock.none) ?(depth = 3) ?max_seconds ?progress ?obs ~seed ~iterations targets =
  if depth < 1 then invalid_arg "Fuzz.run: depth must be >= 1";
  if iterations < 0 then invalid_arg "Fuzz.run: iterations must be >= 0";
  let master = Stream.create seed in
  let t0 = Clock.now clock in
  let stopped_early = ref false in
  let should_stop () =
    match max_seconds with
    | None -> false
    | Some budget ->
      let stop = Clock.elapsed_since clock t0 >= budget in
      if stop then stopped_early := true;
      stop
  in
  let report_progress = match progress with Some f -> f | None -> fun ~target:_ ~done_:_ ~total:_ -> () in
  let total = List.length targets in
  let results =
    List.mapi
      (fun idx target ->
        let r = fuzz_target ?obs ~master ~depth ~iterations ~should_stop target in
        report_progress ~target:target.fz_target.name ~done_:(idx + 1) ~total;
        r)
      targets
  in
  let summary =
    {
      s_seed = seed;
      s_depth = depth;
      s_iteration_budget = iterations;
      s_stopped_early = !stopped_early;
      s_results = results;
    }
  in
  (match obs with
  | None -> ()
  | Some o ->
    let sum f = List.fold_left (fun acc r -> acc + f r) 0 summary.s_results in
    Metrics.add (Obs.counter o "fuzz/targets") (List.length summary.s_results);
    Metrics.add (Obs.counter o "fuzz/iterations") (sum (fun r -> r.r_iterations));
    Metrics.add (Obs.counter o "fuzz/livelocks") (sum (fun r -> r.r_livelocks));
    Metrics.add (Obs.counter o "fuzz/corpus_entries") (sum (fun r -> r.r_corpus_size));
    Metrics.add (Obs.counter o "fuzz/coverage_edges") (sum (fun r -> r.r_edges));
    Metrics.add
      (Obs.counter o "fuzz/violations")
      (sum (fun r -> List.length r.r_violations)));
  summary

let violation_to_json v =
  Json.Obj
    [
      ("kind", Json.String v.v_kind);
      ("iteration", Json.Int v.v_iteration);
      ("mode", Json.String v.v_mode);
      ("shrunk", Json.Bool (v.v_repro <> None));
      ("repro", Option.fold ~none:Json.Null ~some:Shrink.repro_to_json v.v_repro);
    ]

let result_to_json r =
  Json.Obj
    [
      ("target", Json.String r.r_target);
      ("n", Json.Int r.r_n);
      ("expect_violation", Json.Bool r.r_expect_violation);
      ("found", Json.Bool (r.r_violations <> []));
      ("ok", Json.Bool (target_ok r));
      ("iterations", Json.Int r.r_iterations);
      ("livelocks", Json.Int r.r_livelocks);
      ("corpus_size", Json.Int r.r_corpus_size);
      ("coverage_edges", Json.Int r.r_edges);
      ( "coverage_growth",
        Json.List
          (List.map (fun g -> Json.List [ Json.Int g.g_iteration; Json.Int g.g_edges ]) r.r_growth)
      );
      ("violations", Json.List (List.map violation_to_json r.r_violations));
    ]

let to_json s =
  Json.Obj
    [
      ("seed", Json.String (Int64.to_string s.s_seed));
      ("pct_depth", Json.Int s.s_depth);
      ("iteration_budget", Json.Int s.s_iteration_budget);
      ("stopped_early", Json.Bool s.s_stopped_early);
      ("ok", Json.Bool (ok s));
      ("targets", Json.List (List.map result_to_json s.s_results));
    ]

let pp fmt s =
  Format.fprintf fmt "@[<v>fuzz campaign: seed %Ld, depth %d, budget %d iterations/target%s@ "
    s.s_seed s.s_depth s.s_iteration_budget
    (if s.s_stopped_early then " (stopped early: time budget)" else "");
  Format.fprintf fmt "%-28s %6s %6s %7s %6s %5s  %s@ " "target" "iters" "edges" "corpus" "live"
    "viol" "status";
  List.iter
    (fun r ->
      let status =
        match (r.r_expect_violation, r.r_violations) with
        | true, [] -> "MISSED (mutant not found)"
        | true, v :: _ ->
          Printf.sprintf "found %s @%d via %s%s" v.v_kind v.v_iteration v.v_mode
            (if v.v_repro = None then " (unshrunk!)" else "")
        | false, [] -> "clean"
        | false, v :: _ -> Printf.sprintf "VIOLATION %s @%d via %s" v.v_kind v.v_iteration v.v_mode
      in
      Format.fprintf fmt "%-28s %6d %6d %7d %6d %5d  %s@ " r.r_target r.r_iterations r.r_edges
        r.r_corpus_size r.r_livelocks (List.length r.r_violations) status)
    s.s_results;
  Format.fprintf fmt "@]"
