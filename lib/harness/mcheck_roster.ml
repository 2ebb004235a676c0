module Mcheck = Renaming_mcheck.Mcheck
module Monitor = Renaming_faults.Monitor
module Target = Renaming_faults.Target
module Stream = Renaming_rng.Stream
module Params = Renaming_core.Params

type entry = {
  e_target : Target.t;
  e_seed : int64;
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

let entry ?baseline target ~bounds =
  { e_target = target; e_seed = seed; e_bounds = bounds; e_baseline = baseline }

(* The same instance under another roster name (its crash or fault
   variant). *)
let variant (t : Target.t) suffix = { t with name = t.name ^ suffix }

let target ~name ~n ~mode build = { Target.name; n; mode; build }

let linear_scan_n3 =
  target ~name:"linear-scan-n3" ~n:3 ~mode:Monitor.Tas (fun ~seed:_ ->
      Renaming_baselines.Linear_scan.instance { Renaming_baselines.Linear_scan.n = 3; m = 3 })

(* The handoff protocols at the sizes only this roster runs; their n4
   instances are {!Targets}', which the fuzz roster runs too. *)
let lease_handoff ~n =
  target ~name:(Printf.sprintf "lease-handoff-n%d" n) ~n ~mode:Monitor.Returns (fun ~seed ->
      Renaming_service.Handoff.instance ~n ~seed)

let shard_handoff ~n =
  target ~name:(Printf.sprintf "shard-handoff-n%d" n) ~n ~mode:Monitor.Returns (fun ~seed ->
      Renaming_service.Shard_handoff.instance ~n ~seed)

(* [baseline] is a frozen count: the schedules the pre-DPOR sleep-set
   DFS explored for the entry, measured once with that engine's pruning,
   which is gone.  It stays as the denominator of the DPOR reduction
   ratio reported in results/mcheck.json, and cannot be re-measured.
   Entries added after the DPOR switch (the n5 configurations,
   infeasible under the old engine's budget) have no baseline. *)
let roster () =
  [
    (* Schedule-only exploration, preemption bound 2. *)
    entry ~baseline:8 Targets.loose_geometric_n4 ~bounds:(bounds ~preemptions:2 ());
    entry ~baseline:5 Targets.uniform_probing_n3 ~bounds:(bounds ~preemptions:2 ());
    entry ~baseline:18 linear_scan_n3 ~bounds:(bounds ~preemptions:2 ());
    (* Four entries run at a preemption bound one notch above the
       pre-DPOR roster (raised when DPOR landed): at very low bounds
       sleep-set pruning under a preemption budget is lossy in both
       directions — it revisits some Mazurkiewicz classes and misses
       others outright — so the legacy count there understates the work
       an exhaustive-per-class engine must do.  The deeper bounds are
       affordable under DPOR, and the baselines are re-frozen legacy
       counts at the same (new) bounds. *)
    entry ~baseline:376 Targets.linear_scan_n4 ~bounds:(bounds ~preemptions:3 ());
    (* Tight needs n >= 8 (Params.make), so its traces are an order of
       magnitude longer; one preemption keeps it in budget. *)
    entry ~baseline:40320
      (target ~name:"tight-n8" ~n:8 ~mode:Monitor.Tas (fun ~seed ->
           let params = Params.make ~policy:Params.Mass_conserving ~n:8 () in
           Renaming_core.Tight.instance ~params ~stream:(Stream.create seed) ()))
      ~bounds:(bounds ~preemptions:0 ());
    (* The lease-handoff fencing protocol (Renaming_service.Handoff):
       no process TASes a namespace register for the name it returns, so
       the return is the grant ([Returns] mode) — the property is
       uniqueness of the returned name. *)
    entry ~baseline:44 (lease_handoff ~n:3) ~bounds:(bounds ~preemptions:3 ());
    entry ~baseline:76 Targets.lease_handoff_n4 ~bounds:(bounds ~preemptions:2 ());
    entry (lease_handoff ~n:5) ~bounds:(bounds ~preemptions:2 ());
    (* The slice-handoff fencing protocol (Renaming_service.Shard_handoff):
       the router's ownership-transfer core — a whole slice of names is
       fenced name-by-name and re-granted under a bumped epoch.  Same
       aux-register guard structure as lease-handoff, so the same mode;
       the property is global uniqueness of every returned name across
       both epochs. *)
    entry ~baseline:130 (shard_handoff ~n:3) ~bounds:(bounds ~preemptions:5 ());
    entry ~baseline:212 Targets.shard_handoff_n4 ~bounds:(bounds ~preemptions:3 ());
    entry (shard_handoff ~n:5) ~bounds:(bounds ~preemptions:2 ());
    (* The at-most-once retry/dedup/fence protocol (Renaming_service.Net_dedup):
       one request delivered several times, eviction fenced by the same
       settle lock the fresh execution commits through.  Grants live in
       aux locks, so the return is the grant; the property is that the
       rid's name is returned by exactly one delivery across both dedup
       epochs.  Post-DPOR addition, so no legacy baseline. *)
    entry
      (target ~name:"net-dedup-n3" ~n:3 ~mode:Monitor.Returns (fun ~seed ->
           Renaming_service.Net_dedup.instance ~n:3 ~seed))
      ~bounds:(bounds ~preemptions:4 ());
    entry Targets.net_dedup_n4 ~bounds:(bounds ~preemptions:3 ());
    (* The grant/reclaim announce model (Renaming_refine.Grant_model):
       every protocol action is self-reported on the announce word, so
       under the monitor's spec check this entry proves the model
       spec-legal on *every* schedule within bounds — crashes
       and recoveries included, which is exactly where the spec's
       crash-abandons-claims rule earns its keep.  Post-DPOR addition,
       so no legacy baseline. *)
    entry Targets.refine_grant_n2
      ~bounds:(bounds ~preemptions:3 ~crashes:1 ~recoveries:1 ());
    (* Crash/recovery and transient-fault injection variants. *)
    entry ~baseline:173
      (variant Targets.uniform_probing_n3 "-crash")
      ~bounds:(bounds ~preemptions:1 ~crashes:1 ~recoveries:1 ());
    entry ~baseline:468
      (variant linear_scan_n3 "-crash")
      ~bounds:(bounds ~preemptions:2 ~crashes:1 ~recoveries:1 ());
    entry ~baseline:59
      (variant Targets.uniform_probing_n3 "-fault")
      ~bounds:(bounds ~preemptions:1 ~faults:1 ());
    entry ~baseline:207
      (variant Targets.loose_geometric_n4 "-fault")
      ~bounds:(bounds ~preemptions:1 ~faults:1 ());
    entry ~baseline:106 (variant (lease_handoff ~n:3) "-fault") ~bounds:(bounds ~preemptions:1 ~faults:1 ());
    entry ~baseline:269 (variant (shard_handoff ~n:3) "-fault") ~bounds:(bounds ~preemptions:1 ~faults:1 ());
  ]

let tier1 () =
  let keep =
    [
      "uniform-probing-n3"; "linear-scan-n3"; "uniform-probing-n3-crash";
      "lease-handoff-n3"; "lease-handoff-n4"; "shard-handoff-n3"; "shard-handoff-n4";
      "shard-handoff-n5"; "net-dedup-n3"; "refine-grant-n2";
    ]
  in
  List.filter (fun e -> List.mem e.e_target.Target.name keep) (roster ())

let run_entry ?obs e =
  Mcheck.check ~bounds:e.e_bounds ?baseline:e.e_baseline ?obs ~seed:e.e_seed e.e_target
