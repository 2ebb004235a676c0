(* The full client -> transport -> router -> dedup -> admission -> lease
   path: [Net_churn.run] with its defaults (4 shards x 8 slices x 16,
   96 clients, failure detector on) over a lossy network (drop 0.05,
   duplicate 0.05, reorder 0.1 by up to 0.05 more), renewing every 0.5,
   with the refinement checker on the router tap and a live telemetry
   capability — the path `chaos --net` and `refine` run.  It runs below
   capacity and is renew/use-heavy, so it uses the service differently
   from lease-direct.  The op is one session; each repetition is one
   [Net_churn.run]. *)

module Net_churn = Renaming_service.Net_churn
module Transport = Renaming_service.Transport
module Router = Renaming_service.Router
module Audit = Renaming_service.Audit
module Lease = Renaming_service.Lease
module Lease_adapter = Renaming_refine.Lease_adapter
module Check = Renaming_refine.Check
module Longlived = Renaming_longlived.Longlived
module Obs = Renaming_obs.Obs
module Metrics = Renaming_obs.Metrics
module Hist = Renaming_obs.Hist

let kinds = [| "net_churn.run"; "refine.tap" |]
let k_run = 0
let k_tap = 1

(* The ladder's rungs switch these off one at a time. *)
type variant = { lossy : bool; refine : bool; obs : bool }

let full = { lossy = true; refine = true; obs = true }

let faults = Transport.make_faults ~drop:0.05 ~duplicate:0.05 ~reorder:0.1 ~reorder_extra:0.05 ()

let rid_of = function
  | Router.Tap_audit
      {
        ev =
          ( Audit.Granted { fence; _ }
          | Audit.Renewed { fence; _ }
          | Audit.Validated { fence; _ }
          | Audit.Released { fence; _ }
          | Audit.Reclaimed { fence; _ } );
        _;
      } ->
    fence.Lease.f_session
  | Router.Tap_absorb { slice; _ } -> slice

let prepare ?(variant = full) ~size ~seed m =
  let cfg =
    Net_churn.make_config ~sessions_target:size
      ~faults:(if variant.lossy then faults else Transport.perfect)
      ~renew_every:0.5 ()
  in
  let rcfg = cfg.Net_churn.router in
  let slice_width =
    Longlived.namespace_for ~sessions:rcfg.Router.slice_capacity ~epsilon:rcfg.Router.epsilon
  in
  let adapter = Lease_adapter.create ~namespace:(rcfg.Router.slices * slice_width) () in
  let obs = if variant.obs then Some (Obs.create ()) else None in
  let seed = (Rep.seeds ~seed ~name:"net-lossy" 1).(0) in
  let run_span = ref (-1) in
  let tap =
    if not variant.refine then None
    else begin
      let tap = Lease_adapter.router_tap adapter ~slice_width in
      if not (Meter.traced m) then Some tap
      else
        Some
          (fun ev ->
            let t0 = Meter.now () in
            tap ev;
            Meter.child m k_tap ~parent:!run_span ~rid:(rid_of ev) t0 (Meter.now ()))
    end
  in
  fun () ->
    Meter.start_rep m;
    let t0 = Meter.now () in
    run_span := Meter.open_ m k_run ~rid:0 t0;
    let s = Net_churn.run ?obs ?tap cfg ~seed in
    Meter.close m !run_span k_run t0;
    let wall_ns = Meter.end_rep m in
    let check = Lease_adapter.check adapter in
    let probes =
      match Option.bind obs (fun o -> Metrics.find_histogram (Obs.metrics o) "service/probes") with
      | Some h -> (Hist.sum h, Hist.count h)
      | None -> (0, 0)
    in
    let errors =
      List.filter_map
        (fun (bad, msg) -> if bad then Some msg else None)
        [
          ( s.Net_churn.violation <> None,
            match s.Net_churn.violation with Some (k, msg) -> k ^ ": " ^ msg | None -> "" );
          (s.Net_churn.double_grants > 0, "double grants");
          (s.Net_churn.unexpected_fenced > 0, "live clients fenced");
          (s.Net_churn.stale_ok > 0, "a ghost's stale fence was accepted");
          (Check.violations check > 0, "refinement violations");
          (s.Net_churn.livelocked, "livelocked");
        ]
    in
    let busy = s.Net_churn.redirects + s.Net_churn.shard_down_busy + s.Net_churn.in_handoff_busy in
    {
      Rep.wall_ns;
      timed_ns = Meter.timed_ns m;
      ops = s.Net_churn.sessions;
      failed = s.Net_churn.abandoned;
      steps = fst probes;
      named = snd probes;
      attempts = s.Net_churn.sessions;
      granted = s.Net_churn.sessions - s.Net_churn.abandoned;
      counts =
        [
          ("sessions", float_of_int s.Net_churn.sessions);
          ("abandoned", float_of_int s.Net_churn.abandoned);
          ("events", float_of_int s.Net_churn.events);
          ("msgs", float_of_int s.Net_churn.net.Transport.sent);
          ("resends", float_of_int s.Net_churn.resends);
          ("dedup.fresh", float_of_int s.Net_churn.dedup.Renaming_service.Dedup.fresh);
          ("dedup.replays", float_of_int s.Net_churn.dedup.Renaming_service.Dedup.replays);
          ("dedup.evictions", float_of_int s.Net_churn.dedup.Renaming_service.Dedup.evictions);
          ("router.busy", float_of_int busy);
          ("refine.events", float_of_int (Check.events check));
          ("stale_ops", float_of_int s.Net_churn.stale_ops);
          ("probes", float_of_int (fst probes));
          ("grants", float_of_int (snd probes));
        ];
      errors;
    }

let workload =
  {
    Rep.name = "net-lossy";
    layers = [ "net_churn"; "refine" ];
    kinds;
    full = 8_000;
    smoke = 300;
    setup_batch = 1;
    domains = 1;
    deterministic = true;
    prepare = (fun ~size ~seed m -> prepare ~size ~seed m);
  }
