module Json = Renaming_obs.Json
module Export = Renaming_obs.Export
module Obs = Renaming_obs.Obs
module Metrics = Renaming_obs.Metrics
module Net_churn = Renaming_service.Net_churn
module Router = Renaming_service.Router
module Service = Renaming_service.Service
module Transport = Renaming_service.Transport
module Dedup = Renaming_service.Dedup
module Check = Renaming_refine.Check
module Spec = Renaming_refine.Spec
module Lease_adapter = Renaming_refine.Lease_adapter

type check = Zero of string * string | Fired of string list * string

type t = {
  name : string;
  schema : string;
  default_sessions : int;
  cells : sessions:int -> (string * Net_churn.config) list;
  fields : Net_churn.summary -> (string * Json.t) list;
  totals : (string * (Net_churn.summary -> int)) list;
  checks : check list;
  brief : string list;
}

module N = Net_churn

let flag b = if b then 1 else 0

let violation_json = function
  | None -> Json.Null
  | Some (kind, message) ->
    Json.Obj [ ("kind", Json.String kind); ("message", Json.String message) ]

let violations (s : N.summary) = flag (s.N.violation <> None)

(* The checks every campaign shares: the safety totals must be 0, and
   ghost replays and the refinement spec must have fired. *)
let safety_checks =
  [
    Zero ("violations", "safety violation(s)");
    Zero ("livelocks", "livelocked run(s)");
    Zero ("unexpected_fenced", "live operation(s) wrongly fenced");
    Zero ("stale_ok", "stale ghost operation(s) not fenced");
    Fired ([ "stale_ops" ], "ghost replays");
    Fired ([ "refine_events" ], "refinement events");
  ]

(* {2 In-process campaigns}

   The service and sharded campaigns run over a perfect transport: no
   loss, zero delay, so the envelope path has the in-process semantics
   and faults come only from the plans. *)

let service_cells ~sessions =
  (* One shard serving one slice is a single Service behind the router,
     with the lease and admission parameters of the service cells. *)
  let router = Router.make_config ~shards:1 ~slices:1 ~slice_capacity:64 ~auto_rebalance:false in
  let base =
    N.make_config ~sessions_target:sessions ~faults:Transport.perfect ~stale_wakeup:0.25
      ~max_attempts:6
  in
  [
    (* Utilization shedding: the high-water mark refuses new work while
       reclaim churn eats the reserved headroom. *)
    ( "steady-shed",
      base ~clients:128 ~crash_rate:0.25
        ~router:(router ~queue_limit:64 ~high_water:0.85 ())
        () );
    (* Queue-only admission: shedding disabled (high_water > 1), so
       degradation happens through the bounded queue — waits, timeouts,
       queue-full refusals. *)
    ( "queue-degrade",
      base ~clients:192 ~crash_rate:0.25
        ~router:(router ~queue_limit:32 ~request_timeout:2.0 ~high_water:1.5 ())
        () );
    (* Correlated burst: a third of the population crashes inside a
       ten-tick window — reclamation has to recover a block of names at
       once. *)
    ( "burst-reclaim",
      base ~clients:128 ~crash_rate:0.25
        ~router:(router ~queue_limit:64 ~high_water:0.85 ())
        ~client_burst:{ N.b_at = 300; b_width = 10; b_failures = 42 }
        () );
    (* Zipf-hot churn: skew 1.4 and short thinks concentrate arrivals on
       a few hot clients at a 35% crash rate. *)
    ( "hot-zipf",
      base ~clients:128 ~crash_rate:0.35 ~zipf_s:1.4 ~mean_think:1.5
        ~router:(router ~queue_limit:64 ~high_water:0.85 ())
        () );
  ]

let service =
  let sv (s : N.summary) = s.N.service in
  {
    name = "service";
    schema = "renaming.chaos-service/4";
    default_sessions = 150_000;
    cells = service_cells;
    fields =
      (fun s ->
        let v = sv s in
        [
          ("sessions", Json.Int s.N.sessions);
          ("events", Json.Int s.N.events);
          ("sim_time", Json.Float s.N.sim_time);
          ("sent", Json.Int s.N.net.Transport.sent);
          ("grants", Json.Int v.Service.grants);
          ("queued", Json.Int v.Service.queued);
          ("renews", Json.Int v.Service.renews);
          ("releases", Json.Int v.Service.releases);
          ("reclaims", Json.Int v.Service.reclaims);
          ("sheds_high_water", Json.Int v.Service.sheds_high_water);
          ("sheds_queue_full", Json.Int v.Service.sheds_queue_full);
          ("expired_requests", Json.Int v.Service.expired_requests);
          ("fenced", Json.Int v.Service.fenced);
          ("crashes", Json.Int s.N.client_crashes);
          ("restarts", Json.Int s.N.client_restarts);
          ("abandoned", Json.Int s.N.abandoned);
          ("retries", Json.Int s.N.retries);
          ("resends", Json.Int s.N.resends);
          ("expected_fenced", Json.Int s.N.expected_fenced);
          ("stale_ops", Json.Int s.N.stale_ops);
          ("stale_rejected", Json.Int s.N.stale_rejected);
          ("stale_ok", Json.Int s.N.stale_ok);
          ("unexpected_fenced", Json.Int s.N.unexpected_fenced);
          ("peak_held", Json.Int s.N.peak_held);
          ("final_held", Json.Int s.N.final_held);
          ("livelocked", Json.Bool s.N.livelocked);
          ("violation", violation_json s.N.violation);
          ("hist_probes", Export.hist_json s.N.h_probes);
          ("hist_reclaim_lateness", Export.hist_json s.N.h_reclaim);
          ("hist_queue_wait", Export.hist_json s.N.h_wait);
          ("hist_lease_lifetime", Export.hist_json s.N.h_lifetime);
        ]);
    totals =
      [
        ("sessions", fun s -> s.N.sessions);
        ("grants", fun s -> (sv s).Service.grants);
        ("reclaims", fun s -> (sv s).Service.reclaims);
        ( "sheds",
          fun s -> (sv s).Service.sheds_high_water + (sv s).Service.sheds_queue_full );
        ("expired_requests", fun s -> (sv s).Service.expired_requests);
        ("stale_ops", fun s -> s.N.stale_ops);
        ("stale_rejected", fun s -> s.N.stale_rejected);
        ("stale_ok", fun s -> s.N.stale_ok);
        ("crashes", fun s -> s.N.client_crashes);
        ("abandoned", fun s -> s.N.abandoned);
        ("violations", violations);
        ("livelocks", fun s -> flag s.N.livelocked);
        ("unexpected_fenced", fun s -> s.N.unexpected_fenced);
      ];
    checks =
      safety_checks
      @ [
          Fired ([ "reclaims" ], "lease reclaims");
          Fired ([ "sheds" ], "shed requests");
        ];
    brief =
      [ "sessions"; "grants"; "reclaims"; "sheds_high_water"; "sheds_queue_full";
        "expired_requests"; "stale_ops"; "stale_rejected"; "peak_held" ];
  }

let sharded_cells ~sessions =
  let base = N.make_config ~sessions_target:sessions ~faults:Transport.perfect in
  let router = Router.make_config in
  [
    (* Zipf skew concentrates the hot slices on shard 0; the
       auto-rebalancer must move slices off it, and every clean handoff
       must keep live leases alive (unexpected_fenced = 0). *)
    ( "hot-rebalance",
      base ~zipf_s:1.4 ~mean_think:1.5 ~crash_rate:0.1
        ~router:(router ~auto_rebalance:true ~hot_util:0.55 ~cold_util:0.45 ())
        () );
    (* Correlated shard crashes: half the fleet dies inside a short
       window; survivors absorb the orphaned slices after grace and the
       doomed leases come back only as expected fences.  Holds longer
       than the grace keep victims renewing through the dark period so
       they actually observe the (expected) fence after adoption
       instead of giving up first. *)
    ( "shard-crash",
      base ~crash_rate:0.15 ~mean_hold:20.0 ~router:(router ())
        ~shard_burst:{ N.b_at = 120; b_width = 8; b_failures = 2 }
        ~shard_restart:40.0 () );
    (* Crash-during-handoff: forced slice transfers where source or
       destination dies in the in-transit window.  The epoch fence must
       turn every such crash into an orphan or an abort — never a
       double-served slice. *)
    ( "handoff-crash",
      base ~crash_rate:0.1 ~router:(router ())
        ~handoff:{ N.h_every = 12.0; h_crash_src = 0.3; h_crash_dst = 0.2 }
        ~shard_restart:35.0 () );
    (* Stall routing: shards pause in rotation past the suspicion window;
       the router orphans their slices, and the longest stalls outlive
       the grace too, so the slices are adopted under the stalled shard
       and the woken shard must drop its stale bodies. *)
    ( "stall-routing",
      base ~crash_rate:0.1 ~router:(router ())
        ~stall:{ N.st_every = 25.0; st_duration = 18.0 } () );
  ]

let sharded =
  let rt (s : N.summary) = s.N.router in
  {
    name = "sharded";
    schema = "renaming.chaos-sharded/3";
    default_sessions = 60_000;
    cells = sharded_cells;
    fields =
      (fun s ->
        let r = rt s and f = s.N.detector in
        [
          ("sessions", Json.Int s.N.sessions);
          ("events", Json.Int s.N.events);
          ("sim_time", Json.Float s.N.sim_time);
          ("sent", Json.Int s.N.net.Transport.sent);
          ("handoffs_started", Json.Int r.Router.handoffs_started);
          ("handoffs_completed", Json.Int r.Router.handoffs_completed);
          ("handoffs_aborted", Json.Int r.Router.handoffs_aborted);
          ("handoffs_orphaned", Json.Int r.Router.handoffs_orphaned);
          ("adoptions", Json.Int r.Router.adoptions);
          ("suspicions", Json.Int f.Router.suspicions);
          ("reowns", Json.Int f.Router.reowns);
          ("incarnation_orphans", Json.Int f.Router.incarnation_orphans);
          ("fenced_ops", Json.Int r.Router.fenced_ops);
          ("shard_crashes", Json.Int s.N.shard_crashes);
          ("shard_restarts", Json.Int s.N.shard_restarts);
          ("shard_stalls", Json.Int s.N.shard_stalls);
          ("client_crashes", Json.Int s.N.client_crashes);
          ("redirects", Json.Int s.N.redirects);
          ("shard_down_busy", Json.Int s.N.shard_down_busy);
          ("in_handoff_busy", Json.Int s.N.in_handoff_busy);
          ("retries", Json.Int s.N.retries);
          ("resends", Json.Int s.N.resends);
          ("timeouts", Json.Int s.N.timeouts);
          ("abandoned", Json.Int s.N.abandoned);
          ("expected_fenced", Json.Int s.N.expected_fenced);
          ("unexpected_fenced", Json.Int s.N.unexpected_fenced);
          ("releases_dropped", Json.Int s.N.releases_dropped);
          ("lost_tickets", Json.Int s.N.lost_tickets);
          ("stale_ops", Json.Int s.N.stale_ops);
          ("stale_rejected", Json.Int s.N.stale_rejected);
          ("stale_ok", Json.Int s.N.stale_ok);
          ("peak_held", Json.Int s.N.peak_held);
          ("final_held", Json.Int s.N.final_held);
          ("livelocked", Json.Bool s.N.livelocked);
          ("violation", violation_json s.N.violation);
        ]);
    totals =
      [
        ("sessions", fun s -> s.N.sessions);
        ("handoffs_started", fun s -> (rt s).Router.handoffs_started);
        ("handoffs_completed", fun s -> (rt s).Router.handoffs_completed);
        ("handoffs_aborted", fun s -> (rt s).Router.handoffs_aborted);
        ("handoffs_orphaned", fun s -> (rt s).Router.handoffs_orphaned);
        ("adoptions", fun s -> (rt s).Router.adoptions);
        ("redirects", fun s -> s.N.redirects);
        ("shard_down_busy", fun s -> s.N.shard_down_busy);
        ("in_handoff_busy", fun s -> s.N.in_handoff_busy);
        ("shard_crashes", fun s -> s.N.shard_crashes);
        ("shard_stalls", fun s -> s.N.shard_stalls);
        ("expected_fenced", fun s -> s.N.expected_fenced);
        ("unexpected_fenced", fun s -> s.N.unexpected_fenced);
        ("lost_tickets", fun s -> s.N.lost_tickets);
        ("stale_ops", fun s -> s.N.stale_ops);
        ("stale_ok", fun s -> s.N.stale_ok);
        ("violations", violations);
        ("livelocks", fun s -> flag s.N.livelocked);
      ];
    checks =
      safety_checks
      @ [
          Fired ([ "handoffs_started" ], "slice handoffs");
          Fired
            ( [ "handoffs_orphaned"; "handoffs_aborted" ],
              "handoff crashed mid-transit" );
          Fired ([ "adoptions" ], "orphaned slice adopted");
          Fired ([ "shard_crashes" ], "shard crashes");
        ];
    brief =
      [ "sessions"; "handoffs_started"; "handoffs_completed"; "handoffs_aborted";
        "handoffs_orphaned"; "adoptions"; "redirects"; "shard_down_busy";
        "expected_fenced"; "unexpected_fenced"; "peak_held" ];
  }

(* {2 The unreliable-network campaign} *)

let net_cells ~sessions =
  let base = N.make_config ~sessions_target:sessions in
  let faults = Transport.make_faults in
  let router = Router.make_config ~ttl:15.0 ~grace:24.0 in
  [
    (* Message loss, duplication and reordering while the
       auto-rebalancer moves Zipf-hot slices between shards: clean
       handoffs meet in-flight duplicates, so the per-slice dedup table
       must travel with the body and the epoch carried by stale forwards
       must bounce them. *)
    ( "lossy",
      base ~zipf_s:1.4 ~mean_think:1.5
        ~faults:(faults ~drop:0.05 ~duplicate:0.02 ~reorder:0.10 ~reorder_extra:0.3 ())
        ~router:(router ~auto_rebalance:true ~hot_util:0.55 ~cold_util:0.45 ())
        () );
    (* Duplication-dominated: a quarter of all messages delivered twice
       and another quarter reordered, hammering replay and
       stale-duplicate discard on every path. *)
    ( "dup-storm",
      base
        ~faults:(faults ~drop:0.01 ~duplicate:0.25 ~reorder:0.25 ~reorder_extra:0.45 ())
        () );
    (* Directional partitions long enough for the router to suspect
       (heartbeats cut), short enough to heal before grace: false
       suspicion, recovery, and same-epoch re-own with every lease
       intact.  Half the partitions also cut router→shard, turning false
       suspicion into real unavailability. *)
    ( "partition",
      base
        ~faults:(faults ~drop:0.02 ~duplicate:0.02 ~reorder:0.05 ~reorder_extra:0.2 ())
        ~partition:{ N.p_every = 40.0; p_duration = 12.0; p_both = 0.5 }
        () );
    (* Silent shard crashes the router discovers only through heartbeat
       loss; restart delays straddle the suspicion window, so some
       restarts announce themselves by incarnation bump (before the
       sweep fires) and some by recovery-from-suspicion over an
       amnesiac body.  Orphans are adopted after grace. *)
    ( "crash-detect",
      base
        ~faults:(faults ~drop:0.03 ~duplicate:0.03 ~reorder:0.05 ~reorder_extra:0.2 ())
        ~shard_crash_every:45.0 ~shard_restart:2.0
        () );
  ]

let net =
  let tp (s : N.summary) = s.N.net and dd (s : N.summary) = s.N.dedup in
  let fd (s : N.summary) = s.N.detector in
  {
    name = "net";
    schema = "renaming.chaos-net/2";
    default_sessions = 65_000;
    cells = net_cells;
    fields =
      (fun s ->
        let net = tp s and d = dd s and f = fd s in
        [
          ("sessions", Json.Int s.N.sessions);
          ("events", Json.Int s.N.events);
          ("sim_time", Json.Float s.N.sim_time);
          ("sent", Json.Int net.Transport.sent);
          ("delivered", Json.Int net.Transport.delivered);
          ("dropped", Json.Int net.Transport.dropped);
          ("duplicated", Json.Int net.Transport.duplicated);
          ("reordered", Json.Int net.Transport.reordered);
          ("blocked", Json.Int net.Transport.blocked);
          ("dedup_fresh", Json.Int d.Dedup.fresh);
          ("dedup_replays", Json.Int d.Dedup.replays);
          ("dedup_stale", Json.Int d.Dedup.stale);
          ("dedup_evictions", Json.Int d.Dedup.evictions);
          ("suspicions", Json.Int f.Router.suspicions);
          ("recoveries", Json.Int f.Router.recoveries);
          ("reowns", Json.Int f.Router.reowns);
          ("incarnation_orphans", Json.Int f.Router.incarnation_orphans);
          ("adoptions", Json.Int s.N.router.Router.adoptions);
          ("partitions", Json.Int s.N.partitions);
          ("shard_crashes", Json.Int s.N.shard_crashes);
          ("shard_restarts", Json.Int s.N.shard_restarts);
          ("client_crashes", Json.Int s.N.client_crashes);
          ("resends", Json.Int s.N.resends);
          ("timeouts", Json.Int s.N.timeouts);
          ("redirects", Json.Int s.N.redirects);
          ("shard_down_busy", Json.Int s.N.shard_down_busy);
          ("in_handoff_busy", Json.Int s.N.in_handoff_busy);
          ("sheds", Json.Int s.N.sheds);
          ("abandoned", Json.Int s.N.abandoned);
          ("lost_tickets", Json.Int s.N.lost_tickets);
          ("late_grants_released", Json.Int s.N.late_grants_released);
          ("releases_dropped", Json.Int s.N.releases_dropped);
          ("expected_fenced", Json.Int s.N.expected_fenced);
          ("unexpected_fenced", Json.Int s.N.unexpected_fenced);
          ("double_grants", Json.Int s.N.double_grants);
          ("stale_ops", Json.Int s.N.stale_ops);
          ("stale_rejected", Json.Int s.N.stale_rejected);
          ("stale_ok", Json.Int s.N.stale_ok);
          ("peak_held", Json.Int s.N.peak_held);
          ("final_held", Json.Int s.N.final_held);
          ("livelocked", Json.Bool s.N.livelocked);
          ("violation", violation_json s.N.violation);
        ]);
    totals =
      [
        ("sessions", fun s -> s.N.sessions);
        ("dropped", fun s -> (tp s).Transport.dropped);
        ("duplicated", fun s -> (tp s).Transport.duplicated);
        ("reordered", fun s -> (tp s).Transport.reordered);
        ("blocked", fun s -> (tp s).Transport.blocked);
        ("resends", fun s -> s.N.resends);
        ("timeouts", fun s -> s.N.timeouts);
        ("replays", fun s -> (dd s).Dedup.replays);
        ("stale_dups", fun s -> (dd s).Dedup.stale);
        ("evictions", fun s -> (dd s).Dedup.evictions);
        ("suspicions", fun s -> (fd s).Router.suspicions);
        ("recoveries", fun s -> (fd s).Router.recoveries);
        ("reowns", fun s -> (fd s).Router.reowns);
        ("incarnation_orphans", fun s -> (fd s).Router.incarnation_orphans);
        ("adoptions", fun s -> s.N.router.Router.adoptions);
        ("partitions", fun s -> s.N.partitions);
        ("shard_crashes", fun s -> s.N.shard_crashes);
        ("redirects", fun s -> s.N.redirects);
        ("abandoned", fun s -> s.N.abandoned);
        ("lost_tickets", fun s -> s.N.lost_tickets);
        ("late_grants_released", fun s -> s.N.late_grants_released);
        ("expected_fenced", fun s -> s.N.expected_fenced);
        ("unexpected_fenced", fun s -> s.N.unexpected_fenced);
        ("double_grants", fun s -> s.N.double_grants);
        ("stale_ops", fun s -> s.N.stale_ops);
        ("stale_ok", fun s -> s.N.stale_ok);
        ("violations", violations);
        ("livelocks", fun s -> flag s.N.livelocked);
      ];
    checks =
      Zero ("double_grants", "at-most-once violation(s) (rid executed twice)")
      :: safety_checks
      @ List.map
          (fun (total, what) -> Fired ([ total ], what))
          [
            ("dropped", "messages dropped");
            ("duplicated", "messages duplicated");
            ("reordered", "messages reordered");
            ("blocked", "messages blocked by partitions");
            ("resends", "client retransmits");
            ("replays", "dedup replays");
            ("evictions", "dedup evictions");
            ("suspicions", "detector suspicions");
            ("recoveries", "detector recoveries");
            ("reowns", "slice re-owns");
            ("incarnation_orphans", "incarnation orphans");
            ("adoptions", "orphan adoptions");
            ("partitions", "partitions");
            ("shard_crashes", "shard crashes");
            ("redirects", "redirects");
          ];
    brief =
      [ "sessions"; "sent"; "dropped"; "duplicated"; "blocked"; "dedup_replays";
        "dedup_evictions"; "suspicions"; "recoveries"; "reowns"; "adoptions";
        "expected_fenced"; "unexpected_fenced"; "double_grants"; "peak_held" ];
  }

(* {2 The runner} *)

type run = { cell : string; seed : int64; summary : N.summary; refine_events : int; refine_held : int }
type result = { runs : run list; totals : (string * int) list }

(* What every run reports of the spec that judged it, after the
   campaign's own fields and totals. *)
let refine_fields r =
  [
    ("refine_events", Json.Int r.refine_events);
    ("refine_held", Json.Int r.refine_held);
  ]

let run ?progress ?obs c ~sessions ~seeds =
  let cells = c.cells ~sessions in
  let total = List.length cells * Array.length seeds in
  let done_ = ref 0 in
  let runs =
    List.concat_map
      (fun (cell, cfg) ->
        Array.to_list
          (Array.map
             (fun seed ->
               let summary, refine = Lease_adapter.run ?obs cfg ~seed in
               incr done_;
               Option.iter (fun f -> f ~done_:!done_ ~total) progress;
               {
                 cell;
                 seed;
                 summary;
                 refine_events = Check.events refine;
                 refine_held = Spec.held (Check.spec refine);
               })
             seeds))
      cells
  in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 runs in
  let totals =
    List.map (fun (key, f) -> (key, sum (fun r -> f r.summary))) c.totals
    @ [ ("refine_events", sum (fun r -> r.refine_events)) ]
  in
  Option.iter
    (fun o ->
      let record key v = Metrics.add (Obs.counter o (Printf.sprintf "chaos_%s/%s" c.name key)) v in
      record "runs" (List.length runs);
      List.iter (fun (key, v) -> record key v) totals)
    obs;
  { runs; totals }

let total r key = List.assoc key r.totals

let failures c r =
  List.filter_map
    (function
      | Zero (key, what) ->
        let n = total r key in
        if n > 0 then Some (Printf.sprintf "%d %s" n what) else None
      | Fired (keys, what) ->
        if List.fold_left (fun acc k -> acc + total r k) 0 keys = 0 then
          Some (Printf.sprintf "no %s (not exercised)" what)
        else None)
    c.checks

let seed_string seed = Printf.sprintf "0x%Lx" seed

let to_json c r =
  let run_json run =
    Json.Obj
      (("cell", Json.String run.cell)
      :: ("seed", Json.String (seed_string run.seed))
      :: (c.fields run.summary @ refine_fields run))
  in
  Json.to_string
    (Json.Obj
       ((("schema", Json.String c.schema)
        :: List.map (fun (k, v) -> ("total_" ^ k, Json.Int v)) r.totals)
       @ [ ("runs", Json.List (List.map run_json r.runs)) ]))

let pp c fmt r =
  Format.fprintf fmt "@[<hov 2>%s chaos: %d runs" c.name (List.length r.runs);
  List.iter (fun (k, v) -> Format.fprintf fmt ",@ %d %s" v k) r.totals;
  Format.fprintf fmt "@]@.";
  List.iter
    (fun run ->
      let fields = c.fields run.summary in
      Format.fprintf fmt "  %-14s seed=%s" run.cell (seed_string run.seed);
      List.iter
        (fun k -> Format.fprintf fmt " %s=%s" k (Json.to_string (List.assoc k fields)))
        c.brief;
      (match List.assoc_opt "livelocked" fields with
      | Some (Json.Bool true) -> Format.fprintf fmt " LIVELOCK"
      | _ -> ());
      (match List.assoc_opt "violation" fields with
      | Some (Json.Obj kv) ->
        Format.fprintf fmt " VIOLATION:%s"
          (Option.value ~default:"?" (Option.bind (List.assoc_opt "kind" kv) Json.to_str))
      | _ -> ());
      Format.fprintf fmt "@.")
    r.runs
