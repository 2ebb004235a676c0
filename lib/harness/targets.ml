module Target = Renaming_faults.Target
module Monitor = Renaming_faults.Monitor
module Stream = Renaming_rng.Stream

let loose_geometric_n4 =
  {
    Target.name = "loose-geometric-n4";
    n = 4;
    mode = Monitor.Tas;
    build =
      (fun ~seed ->
        Renaming_core.Loose_geometric.instance
          { Renaming_core.Loose_geometric.n = 4; ell = 2 }
          ~stream:(Stream.create seed));
  }

let uniform_probing_n3 =
  {
    Target.name = "uniform-probing-n3";
    n = 3;
    mode = Monitor.Tas;
    build =
      (fun ~seed ->
        Renaming_baselines.Uniform_probing.instance
          (Renaming_baselines.Uniform_probing.make_config ~max_probes:2 ~n:3 ~m:3 ())
          ~stream:(Stream.create seed));
  }

let linear_scan_n4 =
  {
    Target.name = "linear-scan-n4";
    n = 4;
    mode = Monitor.Tas;
    build =
      (fun ~seed:_ ->
        Renaming_baselines.Linear_scan.instance { Renaming_baselines.Linear_scan.n = 4; m = 4 });
  }

let lease_handoff_n4 =
  {
    Target.name = "lease-handoff-n4";
    n = 4;
    mode = Monitor.Returns;
    build = (fun ~seed -> Renaming_service.Handoff.instance ~n:4 ~seed);
  }

let shard_handoff_n4 =
  {
    Target.name = "shard-handoff-n4";
    n = 4;
    mode = Monitor.Returns;
    build = (fun ~seed -> Renaming_service.Shard_handoff.instance ~n:4 ~seed);
  }

let net_dedup_n4 =
  {
    Target.name = "net-dedup-n4";
    n = 4;
    mode = Monitor.Returns;
    build = (fun ~seed -> Renaming_service.Net_dedup.instance ~n:4 ~seed);
  }

let refine_grant_n2 =
  {
    Target.name = "refine-grant-n2";
    n = 2;
    mode = Monitor.Announce;
    build = (fun ~seed -> Renaming_refine.Grant_model.instance ~n:2 ~seed);
  }
