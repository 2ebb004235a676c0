module Mcheck = Renaming_mcheck.Mcheck
module Shrink = Renaming_faults.Shrink
module Campaign = Renaming_faults.Campaign
module Stream = Renaming_rng.Stream
module Params = Renaming_core.Params

type entry = {
  e_name : string;
  e_n : int;
  e_seed : int64;
  e_check_ownership : bool;
  e_build : seed:int64 -> Renaming_sched.Executor.instance;
  e_bounds : Mcheck.bounds;
  e_baseline : int option;
}

let bounds ?(preemptions = 2) ?(crashes = 0) ?(recoveries = 0) ?(faults = 0)
    ?(max_schedules = 200_000) () =
  {
    Mcheck.default_bounds with
    Mcheck.b_preemptions = preemptions;
    b_crashes = crashes;
    b_recoveries = recoveries;
    b_faults = faults;
    b_max_schedules = max_schedules;
  }

let seed = 0x5EED_2015L

let loose_geometric ~n ~seed =
  Renaming_core.Loose_geometric.instance
    { Renaming_core.Loose_geometric.n; ell = 2 }
    ~stream:(Stream.create seed)

(* max_probes = 2 keeps traces short; the deterministic sweep after the
   probe phase still guarantees termination. *)
let uniform_probing ~n ~seed =
  Renaming_baselines.Uniform_probing.instance
    (Renaming_baselines.Uniform_probing.make_config ~max_probes:2 ~n ~m:n ())
    ~stream:(Stream.create seed)

let linear_scan ~n ~seed:_ =
  Renaming_baselines.Linear_scan.instance { Renaming_baselines.Linear_scan.n; m = n }

let tight ~n ~seed =
  let params = Params.make ~policy:Params.Mass_conserving ~n () in
  Renaming_core.Tight.instance ~params ~stream:(Stream.create seed) ()

let grant_model ~n ~seed = Renaming_refine.Grant_model.instance ~n ~seed

let entry ?(check_ownership = true) ?baseline ~name ~n ~build ~bounds () =
  {
    e_name = name;
    e_n = n;
    e_seed = seed;
    e_check_ownership = check_ownership;
    e_build = build;
    e_bounds = bounds;
    e_baseline = baseline;
  }

(* [baseline] is a frozen count: the schedules the pre-DPOR sleep-set
   DFS explored for the entry, measured once with that engine's pruning,
   which is gone.  It stays as the denominator of the DPOR reduction
   ratio reported in results/mcheck.json, and cannot be re-measured.
   Entries added after the DPOR switch (the n5 configurations,
   infeasible under the old engine's budget) have no baseline. *)
let roster () =
  [
    (* Schedule-only exploration, preemption bound 2. *)
    entry ~name:"loose-geometric-n4" ~n:4 ~baseline:8
      ~build:(fun ~seed -> loose_geometric ~n:4 ~seed)
      ~bounds:(bounds ~preemptions:2 ()) ();
    entry ~name:"uniform-probing-n3" ~n:3 ~baseline:5
      ~build:(fun ~seed -> uniform_probing ~n:3 ~seed)
      ~bounds:(bounds ~preemptions:2 ()) ();
    entry ~name:"linear-scan-n3" ~n:3 ~baseline:18
      ~build:(fun ~seed -> linear_scan ~n:3 ~seed)
      ~bounds:(bounds ~preemptions:2 ()) ();
    (* Four entries run at a preemption bound one notch above the
       pre-DPOR roster (raised when DPOR landed): at very low bounds
       sleep-set pruning under a preemption budget is lossy in both
       directions — it revisits some Mazurkiewicz classes and misses
       others outright — so the legacy count there understates the work
       an exhaustive-per-class engine must do.  The deeper bounds are
       affordable under DPOR, and the baselines are re-frozen legacy
       counts at the same (new) bounds. *)
    entry ~name:"linear-scan-n4" ~n:4 ~baseline:376
      ~build:(fun ~seed -> linear_scan ~n:4 ~seed)
      ~bounds:(bounds ~preemptions:3 ()) ();
    (* Tight needs n >= 8 (Params.make), so its traces are an order of
       magnitude longer; one preemption keeps it in budget. *)
    entry ~name:"tight-n8" ~n:8 ~baseline:40320
      ~build:(fun ~seed -> tight ~n:8 ~seed)
      ~bounds:(bounds ~preemptions:0 ()) ();
    (* The lease-handoff fencing protocol (Renaming_service.Handoff):
       no process TASes a namespace register for the name it returns, so
       ownership checking is off — the property is uniqueness of the
       returned name, which the monitor checks regardless. *)
    entry ~name:"lease-handoff-n3" ~n:3 ~check_ownership:false ~baseline:44
      ~build:(fun ~seed -> Renaming_service.Handoff.instance ~n:3 ~seed)
      ~bounds:(bounds ~preemptions:3 ()) ();
    entry ~name:"lease-handoff-n4" ~n:4 ~check_ownership:false ~baseline:76
      ~build:(fun ~seed -> Renaming_service.Handoff.instance ~n:4 ~seed)
      ~bounds:(bounds ~preemptions:2 ()) ();
    entry ~name:"lease-handoff-n5" ~n:5 ~check_ownership:false
      ~build:(fun ~seed -> Renaming_service.Handoff.instance ~n:5 ~seed)
      ~bounds:(bounds ~preemptions:2 ()) ();
    (* The slice-handoff fencing protocol (Renaming_service.Shard_handoff):
       the router's ownership-transfer core — a whole slice of names is
       fenced name-by-name and re-granted under a bumped epoch.  Same
       aux-register guard structure as lease-handoff, so ownership
       checking is off; the property is global uniqueness of every
       returned name across both epochs. *)
    entry ~name:"shard-handoff-n3" ~n:3 ~check_ownership:false ~baseline:130
      ~build:(fun ~seed -> Renaming_service.Shard_handoff.instance ~n:3 ~seed)
      ~bounds:(bounds ~preemptions:5 ()) ();
    entry ~name:"shard-handoff-n4" ~n:4 ~check_ownership:false ~baseline:212
      ~build:(fun ~seed -> Renaming_service.Shard_handoff.instance ~n:4 ~seed)
      ~bounds:(bounds ~preemptions:3 ()) ();
    entry ~name:"shard-handoff-n5" ~n:5 ~check_ownership:false
      ~build:(fun ~seed -> Renaming_service.Shard_handoff.instance ~n:5 ~seed)
      ~bounds:(bounds ~preemptions:2 ()) ();
    (* The at-most-once retry/dedup/fence protocol (Renaming_service.Net_dedup):
       one request delivered several times, eviction fenced by the same
       settle lock the fresh execution commits through.  Grants live in
       aux locks, so ownership checking is off; the property is that the
       rid's name is returned by exactly one delivery across both dedup
       epochs.  Post-DPOR addition, so no legacy baseline. *)
    entry ~name:"net-dedup-n3" ~n:3 ~check_ownership:false
      ~build:(fun ~seed -> Renaming_service.Net_dedup.instance ~n:3 ~seed)
      ~bounds:(bounds ~preemptions:4 ()) ();
    entry ~name:"net-dedup-n4" ~n:4 ~check_ownership:false
      ~build:(fun ~seed -> Renaming_service.Net_dedup.instance ~n:4 ~seed)
      ~bounds:(bounds ~preemptions:3 ()) ();
    (* The grant/reclaim announce model (Renaming_refine.Grant_model):
       every protocol action is self-reported on the announce word, so
       under the monitor's spec check this entry proves the model
       spec-legal on *every* schedule within bounds — crashes
       and recoveries included, which is exactly where the spec's
       crash-abandons-claims rule earns its keep.  Post-DPOR addition,
       so no legacy baseline. *)
    entry ~name:"refine-grant-n2" ~n:2 ~check_ownership:false
      ~build:(fun ~seed -> grant_model ~n:2 ~seed)
      ~bounds:(bounds ~preemptions:3 ~crashes:1 ~recoveries:1 ()) ();
    (* Crash/recovery and transient-fault injection variants. *)
    entry ~name:"uniform-probing-n3-crash" ~n:3 ~baseline:173
      ~build:(fun ~seed -> uniform_probing ~n:3 ~seed)
      ~bounds:(bounds ~preemptions:1 ~crashes:1 ~recoveries:1 ()) ();
    entry ~name:"linear-scan-n3-crash" ~n:3 ~baseline:468
      ~build:(fun ~seed -> linear_scan ~n:3 ~seed)
      ~bounds:(bounds ~preemptions:2 ~crashes:1 ~recoveries:1 ()) ();
    entry ~name:"uniform-probing-n3-fault" ~n:3 ~baseline:59
      ~build:(fun ~seed -> uniform_probing ~n:3 ~seed)
      ~bounds:(bounds ~preemptions:1 ~faults:1 ()) ();
    entry ~name:"loose-geometric-n4-fault" ~n:4 ~baseline:207
      ~build:(fun ~seed -> loose_geometric ~n:4 ~seed)
      ~bounds:(bounds ~preemptions:1 ~faults:1 ()) ();
    entry ~name:"lease-handoff-n3-fault" ~n:3 ~check_ownership:false ~baseline:106
      ~build:(fun ~seed -> Renaming_service.Handoff.instance ~n:3 ~seed)
      ~bounds:(bounds ~preemptions:1 ~faults:1 ()) ();
    entry ~name:"shard-handoff-n3-fault" ~n:3 ~check_ownership:false ~baseline:269
      ~build:(fun ~seed -> Renaming_service.Shard_handoff.instance ~n:3 ~seed)
      ~bounds:(bounds ~preemptions:1 ~faults:1 ()) ();
  ]

let tier1 () =
  let keep =
    [
      "uniform-probing-n3"; "linear-scan-n3"; "uniform-probing-n3-crash";
      "lease-handoff-n3"; "lease-handoff-n4"; "shard-handoff-n3"; "shard-handoff-n4";
      "shard-handoff-n5"; "net-dedup-n3"; "refine-grant-n2";
    ]
  in
  List.filter (fun e -> List.mem e.e_name keep) (roster ())

let target e =
  {
    Mcheck.t_name = e.e_name;
    t_build = (fun () -> e.e_build ~seed:e.e_seed);
    t_check_ownership = e.e_check_ownership;
  }

let run_entry ?obs e = Mcheck.check ~bounds:e.e_bounds ?baseline:e.e_baseline ?obs (target e)

let repro_of_case e (c : Mcheck.case) =
  match c.Mcheck.v_shrunk with
  | None -> None
  | Some r ->
    Some
      {
        Shrink.rp_algorithm = e.e_name;
        rp_n = e.e_n;
        rp_seed = e.e_seed;
        rp_check_ownership = e.e_check_ownership;
        rp_max_ticks = e.e_bounds.Mcheck.b_max_ticks;
        rp_tau_cadence = 1;
        rp_kind = c.Mcheck.v_kind;
        rp_trace_format = Shrink.Condensed;
        rp_choices = r.Shrink.r_choices;
      }

let builder ~name ~n =
  match List.find_opt (fun e -> String.equal e.e_name name && e.e_n = n) (roster ()) with
  | Some e -> Some e.e_build
  | None -> (
    match
      List.find_opt
        (fun (a : Campaign.algorithm) -> String.equal a.Campaign.algo_name name)
        (Chaos.algorithms ~n)
    with
    | Some a -> Some a.Campaign.build
    | None -> Fuzz_roster.builder ~name ~n)
