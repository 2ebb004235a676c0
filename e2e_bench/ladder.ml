(* The attribution ladder: short traced rungs, all through public APIs,
   that give every per-layer metric whichever workload is traced.

   - oneshot: the instance set, per algorithm;
   - lease rungs: the lease generator over the bare Lease table, the
     Service and an in-process Router (the smallest it allows: 2 shards,
     2 slices of half the capacity); consecutive rungs differ
     by one layer, so the difference of their acquire medians is that
     layer's self time.  The Service rung's answers are also recorded
     and replayed with no backend behind them: the replay's wall time
     minus its tape reads is the generator's own cost on the identical
     path, and with the Service rung's in-call time it must add up to
     that rung's wall time ([bench.attribution_residual] near 0);
   - net rungs: Net_churn over a perfect transport, then lossy, then
     with the refinement tap, then with telemetry (= net-lossy);
   - multicore: one domain against two.

   Each rung runs once untimed to warm up, then once measured. *)

module Service_gen = Lease_gen.Service_gen
module Lease_gen_bare = Lease_gen.Gen (Lease_gen.Lease_backend)
module Router_gen = Lease_gen.Gen (Lease_gen.Router_backend)

type metric = { name : string; value : float; unit_ : string }

let oneshot_sets = 20
let lease_horizon = 150
let net_sessions = 2_000
let mc_runs = 2

let rung kinds prepare =
  ignore (prepare (Meter.create ~traced:true kinds) ());
  let m = Meter.create ~traced:true kinds in
  let r = prepare m () in
  (r, m)

let p50 m k = Lat.percentile (Meter.lat m k) 50.
let fdiv = Rep.fdiv
let f = float_of_int

let oneshot ~seed ~smoke =
  let sets = if smoke then 2 else oneshot_sets in
  let r, m = rung Oneshot.kinds (Oneshot.prepare ~size:sets ~seed) in
  let leaf_ns = Lat.sum (Meter.lat m Oneshot.k_tight) + Lat.sum (Meter.lat m Oneshot.k_geo) + Lat.sum (Meter.lat m Oneshot.k_ll) in
  let c = Rep.count r in
  ( r,
    [
      { name = "core.tight.run_ms"; value = p50 m Oneshot.k_tight /. 1e6; unit_ = "ms" };
      { name = "core.loose_geometric.run_ms"; value = p50 m Oneshot.k_geo /. 1e6; unit_ = "ms" };
      { name = "longlived.run_ms"; value = p50 m Oneshot.k_ll /. 1e6; unit_ = "ms" };
      { name = "sched.ns_per_tick"; value = fdiv (f leaf_ns) (c "ticks"); unit_ = "ns" };
      { name = "sched.ticks_per_instance"; value = c "ticks" /. f (3 * sets); unit_ = "count" };
      { name = "core.tight.steps_max"; value = c "tight.steps_max_sum" /. f sets; unit_ = "steps" };
      { name = "core.loose_geometric.steps_max"; value = c "geo.steps_max_sum" /. f sets; unit_ = "steps" };
      { name = "longlived.probes_per_acquire"; value = fdiv (c "ll.probes") (c "ll.acquires"); unit_ = "probes" };
    ] )

let lease ~seed ~smoke =
  let size = if smoke then 5 else lease_horizon in
  let rl, ml = rung (Lease_gen.kinds "lease") (fun m -> Lease_gen_bare.prepare ~size ~seed m) in
  let rs, ms = rung (Lease_gen.kinds "service") (fun m -> Service_gen.prepare ~size ~seed m) in
  let rr, mr = rung (Lease_gen.kinds "router") (fun m -> Router_gen.prepare ~size ~seed m) in
  let tape = Queue.create () in
  let record = Meter.create ~traced:true (Lease_gen.kinds "service") in
  ignore (Service_gen.prepare ~tape:(Service_gen.Record tape) ~size ~seed record ());
  let replay = Meter.create ~traced:true (Lease_gen.kinds "replay") in
  let rp = Service_gen.prepare ~tape:(Service_gen.Replay tape) ~size ~seed replay () in
  let c = Rep.count rs in
  let ns name k = { name; value = p50 ms k; unit_ = "ns" } in
  let generator_ns = f (rp.Rep.wall_ns - rp.Rep.timed_ns) in
  ( [ rl; rs; rr; rp ],
    [
      ns "service.acquire.p50_ns" Lease_gen.k_acquire;
      ns "service.renew.p50_ns" Lease_gen.k_renew;
      ns "service.use.p50_ns" Lease_gen.k_use;
      ns "service.release.p50_ns" Lease_gen.k_release;
      ns "service.pump.p50_ns" Lease_gen.k_pump;
      { name = "service.acquire.p99_ns"; value = Lat.percentile (Meter.lat ms Lease_gen.k_acquire) 99.; unit_ = "ns" };
      { name = "service.acquire.p999_ns"; value = Lat.percentile (Meter.lat ms Lease_gen.k_acquire) 99.9; unit_ = "ns" };
      { name = "service.pump.p99_ns"; value = Lat.percentile (Meter.lat ms Lease_gen.k_pump) 99.; unit_ = "ns" };
      { name = "lease.acquire.p50_ns"; value = p50 ml Lease_gen.k_acquire; unit_ = "ns" };
      { name = "service.acquire.self_ns"; value = p50 ms Lease_gen.k_acquire -. p50 ml Lease_gen.k_acquire; unit_ = "ns" };
      { name = "router.acquire.self_ns"; value = p50 mr Lease_gen.k_acquire -. p50 ms Lease_gen.k_acquire; unit_ = "ns" };
      { name = "lease.probes_per_grant"; value = Rep.ratio rs.Rep.steps rs.Rep.named; unit_ = "probes" };
      { name = "admission.shed_frac"; value = fdiv (c "refused") (c "attempts"); unit_ = "ratio" };
      { name = "admission.wait_p99_sim"; value = c "wait_p99_sim"; unit_ = "sim" };
      {
        name = "bench.attribution_residual";
        value = fdiv (f rs.Rep.wall_ns -. generator_ns -. f rs.Rep.timed_ns) (f rs.Rep.wall_ns);
        unit_ = "ratio";
      };
    ] )

let net ~seed ~smoke =
  let size = if smoke then 100 else net_sessions in
  let run variant = rung Net_lossy.kinds (Net_lossy.prepare ~variant ~size ~seed) in
  let full = Net_lossy.full in
  let perfect, _ = run { Net_lossy.lossy = false; refine = false; obs = false } in
  let lossy, _ = run { full with Net_lossy.refine = false; obs = false } in
  let refine, _ = run { full with Net_lossy.obs = false } in
  let r, m = run full in
  let c = Rep.count r in
  let wall = f r.Rep.wall_ns in
  let sessions = c "sessions" in
  let tap = Meter.lat m Net_lossy.k_tap in
  ( [ perfect; lossy; refine; r ],
    [
      { name = "net_churn.ns_per_event"; value = fdiv wall (c "events"); unit_ = "ns" };
      { name = "transport.msgs_per_session"; value = fdiv (c "msgs") sessions; unit_ = "msgs" };
      { name = "net_churn.resends_per_session"; value = fdiv (c "resends") sessions; unit_ = "msgs" };
      { name = "dedup.replays_per_fresh"; value = fdiv (c "dedup.replays") (c "dedup.fresh"); unit_ = "ratio" };
      { name = "dedup.evictions"; value = c "dedup.evictions"; unit_ = "count" };
      { name = "router.busy_per_ksession"; value = fdiv (1000. *. c "router.busy") sessions; unit_ = "count" };
      { name = "refine.tap_ns_per_event"; value = Rep.ratio (Lat.sum tap) (Lat.count tap); unit_ = "ns" };
      { name = "refine.share"; value = fdiv (f (Lat.sum tap)) wall; unit_ = "ratio" };
      { name = "refine.events_per_session"; value = fdiv (c "refine.events") sessions; unit_ = "events" };
      { name = "transport.faults_share"; value = fdiv (f (lossy.Rep.wall_ns - perfect.Rep.wall_ns)) wall; unit_ = "ratio" };
      { name = "obs.share"; value = fdiv (f (r.Rep.wall_ns - refine.Rep.wall_ns)) wall; unit_ = "ratio" };
    ] )

let multicore ~seed ~smoke =
  let size = if smoke then 1 else mc_runs in
  let one, _ = rung Multicore.kinds (Multicore.prepare ~domains:1 ~size ~seed) in
  let two, m = rung Multicore.kinds (Multicore.prepare ~domains:2 ~size ~seed) in
  ( [ one; two ],
    [
      { name = "concurrent.run_ms.p50"; value = p50 m 0 /. 1e6; unit_ = "ms" };
      { name = "concurrent.run_ms.max"; value = Lat.percentile (Meter.lat m 0) 100. /. 1e6; unit_ = "ms" };
      { name = "concurrent.ns_per_step"; value = Rep.ratio two.Rep.timed_ns two.Rep.steps; unit_ = "ns" };
      { name = "concurrent.scaling_2v1"; value = Rep.ratio one.Rep.timed_ns two.Rep.timed_ns; unit_ = "ratio" };
    ] )

let run ~seed ~smoke =
  let o, om = oneshot ~seed ~smoke in
  let ls, lm = lease ~seed ~smoke in
  let ns, nm = net ~seed ~smoke in
  let ms, mm = multicore ~seed ~smoke in
  let errors = List.concat_map (fun r -> r.Rep.errors) ((o :: ls) @ ns @ ms) in
  (om @ lm @ nm @ mm, errors)
