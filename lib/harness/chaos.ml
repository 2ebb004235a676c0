module Campaign = Renaming_faults.Campaign
module Monitor = Renaming_faults.Monitor
module Target = Renaming_faults.Target
module Crash_pattern = Renaming_workload.Crash_pattern
module Adversary = Renaming_sched.Adversary
module Stream = Renaming_rng.Stream
module Params = Renaming_core.Params

(* Every roster algorithm claims names exclusively by winning namespace
   TAS registers, so the monitor judges them all in [Tas] mode. *)
let algorithms ~n : Target.t list =
  let tas name build = { Target.name; n; mode = Monitor.Tas; build } in
  [
    tas "loose-geometric" (fun ~seed ->
        Renaming_core.Loose_geometric.instance
          { Renaming_core.Loose_geometric.n; ell = 2 }
          ~stream:(Stream.create seed));
    tas "loose-clustered" (fun ~seed ->
        Renaming_core.Loose_clustered.instance
          { Renaming_core.Loose_clustered.n; ell = 2 }
          ~stream:(Stream.create seed));
    tas "combined-geometric" (fun ~seed ->
        Renaming_core.Combined.instance
          { Renaming_core.Combined.n; variant = Renaming_core.Combined.Geometric { ell = 2 } }
          ~stream:(Stream.create seed));
    tas "tight" (fun ~seed ->
        let params = Params.make ~policy:Params.Mass_conserving ~n () in
        Renaming_core.Tight.instance ~params ~stream:(Stream.create seed) ());
    tas "adaptive" (fun ~seed ->
        Renaming_core.Adaptive.instance
          (Renaming_core.Adaptive.make_config ~k:n ())
          ~stream:(Stream.create seed));
    tas "uniform-probing" (fun ~seed ->
        Renaming_baselines.Uniform_probing.instance
          (Renaming_baselines.Uniform_probing.make_config ~n ~m:n ())
          ~stream:(Stream.create seed));
    tas "linear-scan" (fun ~seed:_ ->
        Renaming_baselines.Linear_scan.instance { Renaming_baselines.Linear_scan.n; m = n });
  ]

let adversaries () : Campaign.adversary_spec list =
  [
    { Campaign.adv_name = "round-robin"; make_adversary = (fun ~seed:_ -> Adversary.round_robin ()) };
    {
      Campaign.adv_name = "uniform";
      make_adversary =
        (fun ~seed -> Adversary.uniform (Stream.fork_named (Stream.create seed) ~name:"chaos-adv"));
    };
    { Campaign.adv_name = "adaptive-contention"; make_adversary = (fun ~seed:_ -> Adversary.adaptive_contention) };
    { Campaign.adv_name = "colluding"; make_adversary = (fun ~seed:_ -> Adversary.colluding) };
  ]

let crash_rng seed = Stream.fork_named (Stream.create seed) ~name:"chaos-crashes"

(* Crashes sized to bite: a quarter of the processes, spread over a
   horizon on the order of the fault-free run length. *)
let failures n = max 1 (n / 4)

let patterns ~n : Campaign.pattern list =
  let horizon = max 2 (2 * n) in
  let recover ~n = Some (max 1 (n / 2)) in
  [
    Campaign.no_crashes;
    {
      Campaign.pat_name = "crash-permanent";
      schedule =
        (fun ~seed ~n -> Crash_pattern.random ~rng:(crash_rng seed) ~n ~failures:(failures n) ~horizon);
      recover_after = (fun ~n:_ -> None);
    };
    {
      Campaign.pat_name = "crash-recovery";
      schedule =
        (fun ~seed ~n -> Crash_pattern.random ~rng:(crash_rng seed) ~n ~failures:(failures n) ~horizon);
      recover_after = recover;
    };
    {
      Campaign.pat_name = "burst-recovery";
      schedule =
        (fun ~seed ~n ->
          Crash_pattern.burst ~rng:(crash_rng seed) ~n ~failures:(failures n) ~at:(horizon / 4)
            ~width:(max 1 (n / 8)));
      recover_after = recover;
    };
  ]

let default_fault_rates = [ 0.; 0.02; 0.1 ]

let spec ?(n = 48) ?(seed_count = 3) ?(fault_rates = default_fault_rates) ?(max_ticks = 2_000_000)
    () : Campaign.spec =
  {
    Campaign.algorithms = algorithms ~n;
    adversaries = adversaries ();
    patterns = patterns ~n;
    fault_rates;
    seeds = Seeds.take seed_count;
    max_ticks;
  }
