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
  totals : string list;
  checks : check list;
  brief : string list;
}

module N = Net_churn

let flag b = if b then 1 else 0

let violation_json = function
  | None -> Json.Null
  | Some (kind, message) ->
    Json.Obj [ ("kind", Json.String kind); ("message", Json.String message) ]

(* Every field of a run's summary and of its sub-records, in record
   order.  A sub-record's field that repeats a summary field's name
   carries its record's name as a prefix. *)
let summary_fields (s : N.summary) =
  let int k v = (k, Json.Int v) in
  let t = s.N.net and d = s.N.dedup and f = s.N.detector and r = s.N.router in
  let v = s.N.service in
  [
    int "sessions" s.N.sessions;
    int "client_crashes" s.N.client_crashes;
    int "client_restarts" s.N.client_restarts;
    int "shard_crashes" s.N.shard_crashes;
    int "shard_restarts" s.N.shard_restarts;
    int "partitions" s.N.partitions;
    int "shard_stalls" s.N.shard_stalls;
    int "abandoned" s.N.abandoned;
    int "retries" s.N.retries;
    int "resends" s.N.resends;
    int "timeouts" s.N.timeouts;
    int "lost_tickets" s.N.lost_tickets;
    int "redirects" s.N.redirects;
    int "shard_down_busy" s.N.shard_down_busy;
    int "in_handoff_busy" s.N.in_handoff_busy;
    int "sheds" s.N.sheds;
    int "expected_fenced" s.N.expected_fenced;
    int "unexpected_fenced" s.N.unexpected_fenced;
    int "releases_dropped" s.N.releases_dropped;
    int "late_grants_released" s.N.late_grants_released;
    int "double_grants" s.N.double_grants;
    int "stale_ops" s.N.stale_ops;
    int "stale_rejected" s.N.stale_rejected;
    int "stale_ok" s.N.stale_ok;
    int "events" s.N.events;
    ("sim_time", Json.Float s.N.sim_time);
    int "peak_held" s.N.peak_held;
    int "final_held" s.N.final_held;
    ("livelocked", Json.Bool s.N.livelocked);
    ("violation", violation_json s.N.violation);
    int "sent" t.Transport.sent;
    int "delivered" t.Transport.delivered;
    int "dropped" t.Transport.dropped;
    int "duplicated" t.Transport.duplicated;
    int "reordered" t.Transport.reordered;
    int "blocked" t.Transport.blocked;
    int "fresh" d.Dedup.fresh;
    int "replays" d.Dedup.replays;
    int "stale" d.Dedup.stale;
    int "evictions" d.Dedup.evictions;
    int "suspicions" f.Router.suspicions;
    int "recoveries" f.Router.recoveries;
    int "reowns" f.Router.reowns;
    int "incarnation_orphans" f.Router.incarnation_orphans;
    int "handoffs_started" r.Router.handoffs_started;
    int "handoffs_completed" r.Router.handoffs_completed;
    int "handoffs_aborted" r.Router.handoffs_aborted;
    int "handoffs_orphaned" r.Router.handoffs_orphaned;
    int "adoptions" r.Router.adoptions;
    int "router_redirects" r.Router.redirects;
    int "shard_downs" r.Router.shard_downs;
    int "router_in_handoff_busy" r.Router.in_handoff_busy;
    int "fenced_ops" r.Router.fenced_ops;
    int "pumps" r.Router.pumps;
    int "full_pumps" r.Router.full_pumps;
    int "grants" v.Service.grants;
    int "queued" v.Service.queued;
    int "renews" v.Service.renews;
    int "releases" v.Service.releases;
    int "fenced" v.Service.fenced;
    int "sheds_high_water" v.Service.sheds_high_water;
    int "sheds_queue_full" v.Service.sheds_queue_full;
    int "expired_requests" v.Service.expired_requests;
    int "reclaims" v.Service.reclaims;
    int "validates" v.Service.validates;
    ("hist_probes", Export.hist_json s.N.h_probes);
    ("hist_reclaim_lateness", Export.hist_json s.N.h_reclaim);
    ("hist_queue_wait", Export.hist_json s.N.h_wait);
    ("hist_lease_lifetime", Export.hist_json s.N.h_lifetime);
  ]

(* One run's share of a total: an int field of its JSON, or one of the
   two counts every campaign derives from [violation] and [livelocked]. *)
let count fields = function
  | "violations" -> flag (List.assoc "violation" fields <> Json.Null)
  | "livelocks" -> flag (List.assoc "livelocked" fields = Json.Bool true)
  | key -> (
    match List.assoc key fields with
    | Json.Int n -> n
    | _ -> invalid_arg ("Chaos_campaign: not a count: " ^ key))

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

let safe summary =
  let fields = summary_fields summary in
  List.for_all
    (function Zero (key, _) -> count fields key = 0 | Fired _ -> true)
    safety_checks

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
  {
    name = "service";
    schema = "renaming.chaos-service/6";
    default_sessions = 150_000;
    cells = service_cells;
    totals =
      [ "sessions"; "grants"; "reclaims"; "sheds_high_water"; "sheds_queue_full";
        "expired_requests"; "stale_ops"; "stale_rejected"; "stale_ok"; "client_crashes";
        "abandoned"; "unexpected_fenced" ];
    checks =
      safety_checks
      @ [
          Fired ([ "reclaims" ], "lease reclaims");
          Fired ([ "sheds_high_water"; "sheds_queue_full" ], "shed requests");
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
  {
    name = "sharded";
    schema = "renaming.chaos-sharded/5";
    default_sessions = 60_000;
    cells = sharded_cells;
    totals =
      [ "sessions"; "handoffs_started"; "handoffs_completed"; "handoffs_aborted";
        "handoffs_orphaned"; "adoptions"; "redirects"; "shard_down_busy"; "in_handoff_busy";
        "shard_crashes"; "shard_stalls"; "expected_fenced"; "unexpected_fenced";
        "lost_tickets"; "stale_ops"; "stale_ok" ];
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
  {
    name = "net";
    schema = "renaming.chaos-net/4";
    default_sessions = 65_000;
    cells = net_cells;
    totals =
      [ "sessions"; "dropped"; "duplicated"; "reordered"; "blocked"; "resends"; "timeouts";
        "replays"; "stale"; "evictions"; "suspicions"; "recoveries"; "reowns";
        "incarnation_orphans"; "adoptions"; "partitions"; "shard_crashes"; "redirects";
        "abandoned"; "lost_tickets"; "late_grants_released"; "expected_fenced";
        "unexpected_fenced"; "double_grants"; "stale_ops"; "stale_ok" ];
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
      [ "sessions"; "sent"; "dropped"; "duplicated"; "blocked"; "replays"; "evictions";
        "suspicions"; "recoveries"; "reowns"; "adoptions";
        "expected_fenced"; "unexpected_fenced"; "double_grants"; "peak_held" ];
  }

(* {2 The runner} *)

type run = { cell : string; seed : int64; summary : N.summary; refine_events : int; refine_held : int }
type result = { runs : run list; totals : (string * int) list }

(* A run's JSON fields after its cell and seed: its summary, then what
   the spec that judged it reports. *)
let run_fields r =
  summary_fields r.summary
  @ [ ("refine_events", Json.Int r.refine_events); ("refine_held", Json.Int r.refine_held) ]

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
  let fields = List.map run_fields runs in
  let totals =
    List.map
      (fun key -> (key, List.fold_left (fun acc f -> acc + count f key) 0 fields))
      (c.totals @ [ "violations"; "livelocks"; "refine_events" ])
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
      :: run_fields run)
  in
  Json.Obj
    ((("schema", Json.String c.schema)
     :: List.map (fun (k, v) -> ("total_" ^ k, Json.Int v)) r.totals)
    @ [ ("runs", Json.List (List.map run_json r.runs)) ])

let pp c fmt r =
  Format.fprintf fmt "@[<hov 2>%s chaos: %d runs" c.name (List.length r.runs);
  List.iter (fun (k, v) -> Format.fprintf fmt ",@ %d %s" v k) r.totals;
  Format.fprintf fmt "@]@.";
  List.iter
    (fun run ->
      let fields = run_fields run in
      Format.fprintf fmt "  %-14s seed=%s" run.cell (seed_string run.seed);
      List.iter
        (fun k -> Format.fprintf fmt " %s=%s" k (Json.to_string (List.assoc k fields)))
        c.brief;
      if run.summary.N.livelocked then Format.fprintf fmt " LIVELOCK";
      Option.iter
        (fun (kind, _) -> Format.fprintf fmt " VIOLATION:%s" kind)
        run.summary.N.violation;
      Format.fprintf fmt "@.")
    r.runs
