(* The benchmark harness.

   Part 1 regenerates every table and figure of the reproduction (the
   registry of EXPERIMENTS.md) at the scale selected by RENAMING_SCALE
   (quick by default, "full" for the EXPERIMENTS.md configuration).

   Part 2 runs one Bechamel micro-benchmark per table/figure family,
   measuring the wall-clock cost of the code that regenerates it — the
   simulator and device are the system under test here, not the paper's
   step complexity (which part 1 reports).

   Part 3 measures the telemetry capability's overhead: the same
   instance run with no capability argument, with an explicit
   [?obs:None], and with a live capability.  The first two compile to
   the same [None] branch per recording site, so their ratio is the
   disabled-mode overhead bound docs/observability.md documents.

   Everything is also persisted as one machine-readable JSON document:
   results/bench.json (quick) or results/full_scale.json (full);
   schema in docs/observability.md. *)

module Registry = Renaming_harness.Registry
module Runcfg = Renaming_harness.Runcfg
module Table = Renaming_harness.Table
module Params = Renaming_core.Params
module Tight = Renaming_core.Tight
module Geometric = Renaming_core.Loose_geometric
module Clustered = Renaming_core.Loose_clustered
module Combined = Renaming_core.Combined
module Device = Renaming_device.Counting_device
module Sortnet_renaming = Renaming_baselines.Sortnet_renaming
module Adversary = Renaming_sched.Adversary
module Fit = Renaming_stats.Fit
module Obs = Renaming_obs.Obs
module Metrics = Renaming_obs.Metrics
module Export = Renaming_obs.Export
module Json = Renaming_obs.Json

open Bechamel
open Toolkit

(* ---------- Part 2: micro-benchmarks, one per table/figure ---------- *)

let tight_params = Params.make ~policy:Params.Mass_conserving ~n:256 ()
let literal_params = Params.make ~policy:Params.Paper_literal ~n:256 ()

let bench_t1 () = ignore (Tight.run ~params:tight_params ~seed:1L ())

let bench_t1b () = ignore (Tight.run ~params:literal_params ~seed:1L ())

let lemma3_rng = Renaming_rng.Xoshiro.create 3L

let bench_t2 () =
  (* one balls-into-bins trial at n = 4096 *)
  let bins = 24 and balls = 96 in
  let hit = Array.make bins false in
  for _ = 1 to balls do
    hit.(Renaming_rng.Sample.uniform_int lemma3_rng bins) <- true
  done;
  ignore (Array.fold_left (fun acc h -> if h then acc else acc + 1) 0 hit)

let bench_t3 () =
  let instr = Tight.create_instrumentation tight_params in
  ignore (Tight.run ~instr ~params:tight_params ~seed:2L ())

let bench_t4 () = ignore (Geometric.run { Geometric.n = 1024; ell = 2 } ~seed:3L)

let bench_t5 () =
  ignore (Combined.run { Combined.n = 1024; variant = Combined.Geometric { ell = 2 } } ~seed:4L)

let bench_t6 () = ignore (Clustered.run { Clustered.n = 1024; ell = 1 } ~seed:5L)

let bench_t7 () =
  ignore (Combined.run { Combined.n = 1024; variant = Combined.Clustered { ell = 1 } } ~seed:6L)

let bench_t8 () =
  ignore (Sortnet_renaming.run ~kind:Sortnet_renaming.Bitonic ~n:256 ~width:256 ~seed:7L ())

let bench_t9 () =
  ignore (Tight.run ~adversary:Adversary.adaptive_contention ~params:tight_params ~seed:8L ())

let device_rng = Renaming_rng.Xoshiro.create 10L

let bench_t10 () =
  let d = Device.create ~width:40 ~threshold:20 () in
  for _ = 1 to 30 do
    let requests =
      Array.init 30 (fun i -> (i, Renaming_rng.Sample.uniform_int device_rng 40))
    in
    ignore (Device.tick d ~requests)
  done

let fit_points =
  Array.map
    (fun n -> (float_of_int n, 22. *. (log (float_of_int n) /. log 2.)))
    [| 256; 512; 1024; 2048; 4096; 8192 |]

let bench_f1 () = ignore (Fit.best_fit fit_points)

let bench_f2 () =
  let cfg = { Geometric.n = 4096; ell = 2 } in
  let instr = Geometric.create_instrumentation cfg in
  ignore (Geometric.run ~instr cfg ~seed:9L)

let bench_f3 () =
  ignore (Combined.run { Combined.n = 1024; variant = Combined.Geometric { ell = 3 } } ~seed:11L)

let service_churn_cfg =
  Renaming_service.Net_churn.make_config ~faults:Renaming_service.Transport.perfect
    ~clients:64 ~sessions_target:2_000
    ~crash_rate:0.25 ~stale_wakeup:0.25 ~max_attempts:6
    ~router:
      (Renaming_service.Router.make_config ~shards:1 ~slices:1 ~slice_capacity:32
         ~queue_limit:64 ~high_water:0.85 ~auto_rebalance:false ())
    ()

let bench_t17 () = ignore (Renaming_service.Net_churn.run service_churn_cfg ~seed:17L)

let sharded_churn_cfg =
  Renaming_service.Net_churn.make_config ~faults:Renaming_service.Transport.perfect
    ~router:(Renaming_service.Router.make_config ())
    ~clients:32 ~sessions_target:1_000 ~crash_rate:0.15
    ~handoff:{ Renaming_service.Net_churn.h_every = 10.0; h_crash_src = 0.2; h_crash_dst = 0.1 }
    ()

let bench_t18 () = ignore (Renaming_service.Net_churn.run sharded_churn_cfg ~seed:18L)

let micro_tests =
  Test.make_grouped ~name:"renaming"
    [
      Test.make ~name:"T1.tight.n256" (Staged.stage bench_t1);
      Test.make ~name:"T1b.tight-literal.n256" (Staged.stage bench_t1b);
      Test.make ~name:"T2.lemma3.trial" (Staged.stage bench_t2);
      Test.make ~name:"T3.tight.instrumented" (Staged.stage bench_t3);
      Test.make ~name:"T4.loose-geometric.n1024" (Staged.stage bench_t4);
      Test.make ~name:"T5.cor7.n1024" (Staged.stage bench_t5);
      Test.make ~name:"T6.loose-clustered.n1024" (Staged.stage bench_t6);
      Test.make ~name:"T7.cor9.n1024" (Staged.stage bench_t7);
      Test.make ~name:"T8.sortnet-renaming.n256" (Staged.stage bench_t8);
      Test.make ~name:"T9.adaptive-adversary.n256" (Staged.stage bench_t9);
      Test.make ~name:"T10.device.30cycles" (Staged.stage bench_t10);
      Test.make ~name:"T17.lease-service.2k-sessions" (Staged.stage bench_t17);
      Test.make ~name:"T18.sharded-router.1k-sessions" (Staged.stage bench_t18);
      Test.make ~name:"F1.shape-fit" (Staged.stage bench_f1);
      Test.make ~name:"F2.round-decay.n4096" (Staged.stage bench_f2);
      Test.make ~name:"F3.tradeoff.n1024" (Staged.stage bench_f3);
    ]

(* ---------- Part 3: telemetry overhead ----------

   Three variants per instance.  "baseline" omits the [?obs] argument
   entirely and "disabled" passes [?obs:None] explicitly — both execute
   the identical None-branch code path, so any measured gap between
   them is noise and their ratio is an honest estimate of measurement
   error around the documented "one branch per site" disabled cost.
   "enabled" pays for real counters, histograms and the event ring. *)

let bench_tight_baseline () = ignore (Tight.run ~params:tight_params ~seed:1L ())

let bench_tight_disabled () = ignore (Tight.run ?obs:None ~params:tight_params ~seed:1L ())

let bench_tight_enabled () =
  let obs = Obs.create () in
  ignore (Tight.run ~obs ~params:tight_params ~seed:1L ())

let geo_cfg = { Geometric.n = 1024; ell = 2 }

let bench_geo_baseline () = ignore (Geometric.run geo_cfg ~seed:3L)

let bench_geo_disabled () = ignore (Geometric.run ?obs:None geo_cfg ~seed:3L)

let bench_geo_enabled () =
  let obs = Obs.create () in
  ignore (Geometric.run ~obs geo_cfg ~seed:3L)

let overhead_tests =
  Test.make_grouped ~name:"obs"
    [
      Test.make ~name:"T1.tight.n256.baseline" (Staged.stage bench_tight_baseline);
      Test.make ~name:"T1.tight.n256.disabled" (Staged.stage bench_tight_disabled);
      Test.make ~name:"T1.tight.n256.enabled" (Staged.stage bench_tight_enabled);
      Test.make ~name:"T4.loose-geometric.n1024.baseline" (Staged.stage bench_geo_baseline);
      Test.make ~name:"T4.loose-geometric.n1024.disabled" (Staged.stage bench_geo_disabled);
      Test.make ~name:"T4.loose-geometric.n1024.enabled" (Staged.stage bench_geo_enabled);
    ]

let pretty_ns estimate =
  if estimate > 1e9 then Printf.sprintf "%.3f s" (estimate /. 1e9)
  else if estimate > 1e6 then Printf.sprintf "%.3f ms" (estimate /. 1e6)
  else if estimate > 1e3 then Printf.sprintf "%.3f us" (estimate /. 1e3)
  else Printf.sprintf "%.1f ns" estimate

(* Run a Bechamel suite and return sorted (name, ns/run, r^2) rows. *)
let measure ~quota ~limit tests =
  let ols = Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |] in
  let cfg = Benchmark.cfg ~limit ~quota:(Time.second quota) ~kde:None () in
  let raw = Benchmark.all cfg [ Instance.monotonic_clock ] tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Hashtbl.fold
    (fun name ols acc ->
      let estimate =
        match Analyze.OLS.estimates ols with Some (e :: _) -> e | Some [] | None -> nan
      in
      let r2 = match Analyze.OLS.r_square ols with Some r -> r | None -> nan in
      (name, estimate, r2) :: acc)
    results []
  |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)

let print_rows rows =
  Printf.printf "%-44s %16s %10s\n" "micro-benchmark" "time/run" "r^2";
  Printf.printf "%s\n" (String.make 72 '-');
  List.iter
    (fun (name, estimate, r2) -> Printf.printf "%-44s %16s %10.4f\n" name (pretty_ns estimate) r2)
    rows

let find_estimate rows suffix =
  match List.find_opt (fun (name, _, _) -> Filename.check_suffix name suffix) rows with
  | Some (_, e, _) -> e
  | None -> nan

(* The disabled/baseline ratio ought to be statistical noise; the bound
   below is what docs/observability.md and the CI gate on. *)
let overhead_bound = 1.02

type overhead_row = {
  ov_name : string;
  ov_baseline : float;
  ov_disabled : float;
  ov_enabled : float;
}

let overhead_rows rows =
  List.map
    (fun name ->
      {
        ov_name = name;
        ov_baseline = find_estimate rows (name ^ ".baseline");
        ov_disabled = find_estimate rows (name ^ ".disabled");
        ov_enabled = find_estimate rows (name ^ ".enabled");
      })
    [ "T1.tight.n256"; "T4.loose-geometric.n1024" ]

let disabled_ratio r = r.ov_disabled /. r.ov_baseline

let print_overhead rows =
  Printf.printf "%-28s %12s %12s %12s %10s %10s\n" "instance" "baseline" "disabled" "enabled"
    "dis/base" "ena/base";
  Printf.printf "%s\n" (String.make 90 '-');
  List.iter
    (fun r ->
      Printf.printf "%-28s %12s %12s %12s %10.4f %10.4f\n" r.ov_name (pretty_ns r.ov_baseline)
        (pretty_ns r.ov_disabled) (pretty_ns r.ov_enabled) (disabled_ratio r)
        (r.ov_enabled /. r.ov_baseline))
    rows;
  Printf.printf
    "(disabled mode is the same None-branch code path as the baseline; dis/base <= %.2f is the \
     documented bound)\n"
    overhead_bound

(* ---------- step-complexity histograms via the obs capability ---------- *)

let step_histograms () =
  let capture label runit =
    let obs = Obs.create () in
    runit obs;
    match Metrics.find_histogram (Obs.metrics obs) label with
    | Some h -> Export.hist_json h
    | None -> Json.Null
  in
  [
    ( "tight.n256",
      capture "tight/steps" (fun obs -> ignore (Tight.run ~obs ~params:tight_params ~seed:1L ()))
    );
    ( "loose-geometric.n1024",
      capture "loose-geometric/steps" (fun obs -> ignore (Geometric.run ~obs geo_cfg ~seed:3L))
    );
  ]

(* ---------- JSON persistence ---------- *)

let rec mkdir_p dir =
  if dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let write_file path contents =
  mkdir_p (Filename.dirname path);
  let oc = open_out path in
  output_string oc contents;
  close_out oc

let micro_json rows =
  Json.List
    (List.map
       (fun (name, estimate, r2) ->
         Json.Obj
           [ ("name", Json.String name); ("ns_per_run", Json.Float estimate);
             ("r_square", Json.Float r2) ])
       rows)

let overhead_json rows =
  Json.Obj
    [
      ("bound", Json.Float overhead_bound);
      ( "ok",
        Json.Bool
          (List.for_all (fun r -> Float.is_finite (disabled_ratio r)) rows
          && List.for_all (fun r -> disabled_ratio r <= overhead_bound) rows) );
      ( "instances",
        Json.List
          (List.map
             (fun r ->
               Json.Obj
                 [
                   ("name", Json.String r.ov_name);
                   ("baseline_ns", Json.Float r.ov_baseline);
                   ("disabled_ns", Json.Float r.ov_disabled);
                   ("enabled_ns", Json.Float r.ov_enabled);
                   ("disabled_over_baseline", Json.Float (disabled_ratio r));
                   ("enabled_over_baseline", Json.Float (r.ov_enabled /. r.ov_baseline));
                 ])
             rows) );
    ]

let bench_json ~scale ~experiments ~micro ~overhead ~hists =
  Json.Obj
    [
      ("schema", Json.String "renaming.bench/1");
      ("scale", Json.String (Runcfg.scale_name scale));
      ( "experiments",
        Json.List
          (List.map
             (fun (e, table) ->
               Json.Obj
                 [
                   ("id", Json.String e.Registry.id);
                   ("claim", Json.String e.Registry.claim);
                   ("table", Table.to_json table);
                 ])
             experiments) );
      ("micro", micro_json micro);
      ("obs_overhead", overhead);
      ("step_histograms", Json.Obj hists);
    ]

let () =
  let scale = Runcfg.of_env () in
  Printf.printf
    "Randomized Renaming in Shared Memory Systems (IPDPS 2015) — reproduction harness\n";
  Printf.printf "scale: %s (set RENAMING_SCALE=full for the EXPERIMENTS.md configuration)\n"
    (Runcfg.scale_name scale);
  Printf.printf "\n=== Part 1: every table and figure ===\n";
  let experiments =
    List.map
      (fun e ->
        let table = e.Registry.run scale in
        Printf.printf "[%s] %s\nclaim: %s\n\n%s\n%!" e.Registry.id e.Registry.title
          e.Registry.claim (Table.render table);
        (e, table))
      Registry.all
  in
  Printf.printf "\n=== Part 2: Bechamel micro-benchmarks (one per table/figure) ===\n\n%!";
  let micro = measure ~quota:0.5 ~limit:200 micro_tests in
  print_rows micro;
  Printf.printf "\n=== Part 3: telemetry overhead (baseline / disabled / enabled) ===\n\n%!";
  let overhead = overhead_rows (measure ~quota:1.0 ~limit:400 overhead_tests) in
  print_overhead overhead;
  let hists = step_histograms () in
  let out =
    match scale with Runcfg.Quick -> "results/bench.json" | Runcfg.Full -> "results/full_scale.json"
  in
  write_file out
    (Json.to_string
       (bench_json ~scale ~experiments ~micro ~overhead:(overhead_json overhead) ~hists)
    ^ "\n");
  Printf.printf "\n(json written to %s)\n" out
