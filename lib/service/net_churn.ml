module Clock = Renaming_clock.Clock
module Stream = Renaming_rng.Stream
module Sample = Renaming_rng.Sample
module Retry = Renaming_faults.Retry
module Arrival = Renaming_workload.Arrival
module Crash_pattern = Renaming_workload.Crash_pattern
module Zipf = Renaming_workload.Zipf
module Hist = Renaming_obs.Hist

type partition_plan = { p_every : float; p_duration : float; p_both : float }
type burst = { b_at : int; b_width : int; b_failures : int }
type stall_plan = { st_every : float; st_duration : float }
type handoff_plan = { h_every : float; h_crash_src : float; h_crash_dst : float }

(* Client timing: the retransmit timeout, same-rid retransmits before a
   fresh attempt, and the sim time of one jittered backoff tick. *)
let rto = 0.75
let rto_retries = 3
let backoff_unit = 0.25

(* Livelock guard: events (timers and deliveries) before a run gives up. *)
let max_events = 200_000_000

(* A queued rid is re-polled every rto until its queue outcome is known. *)
let max_polls (router : Router.config) =
  int_of_float (ceil ((router.Router.request_timeout +. router.Router.ttl) /. rto)) + 4

type config = {
  clients : int;
  sessions_target : int;
  router : Router.config;
  faults : Transport.faults;
  hb_every : float;
  suspicion : float;
  dedup_window : float;
  zipf_s : float;
  mean_hold : float;
  mean_think : float;
  renew_every : float;
  crash_rate : float;
  stale_wakeup : float;
  client_restart_delay : float;
  max_attempts : int;
  partition : partition_plan option;
  shard_crash_every : float option;
  shard_restart : float;
  shard_burst : burst option;
  client_burst : burst option;
  stall : stall_plan option;
  handoff : handoff_plan option;
}

let make_config ?(clients = 96) ?(sessions_target = 8_000)
    ?(router = Router.make_config ~ttl:15.0 ~grace:24.0 ~auto_rebalance:false ())
    ?(faults = Transport.make_faults ()) ?(hb_every = 1.0) ?(suspicion = 2.5)
    ?(dedup_window = 60.0) ?(zipf_s = 1.0) ?(mean_hold = 6.0)
    ?(mean_think = 4.0) ?(renew_every = 3.0) ?(crash_rate = 0.1)
    ?(stale_wakeup = 0.2) ?(client_restart_delay = 8.0) ?(max_attempts = 8) ?partition
    ?shard_crash_every ?(shard_restart = 30.0) ?shard_burst ?client_burst ?stall ?handoff
    () =
  let maxd = faults.Transport.delay_max +. faults.Transport.reorder_extra in
  if clients < 1 then invalid_arg "Net_churn.make_config: clients must be >= 1";
  if sessions_target < 1 then
    invalid_arg "Net_churn.make_config: sessions_target must be >= 1";
  if hb_every <= 0. then invalid_arg "Net_churn.make_config: hb_every must be > 0";
  if suspicion <= hb_every then
    invalid_arg "Net_churn.make_config: suspicion must exceed hb_every";
  if renew_every <= 0. || renew_every >= router.Router.ttl then
    invalid_arg "Net_churn.make_config: renew_every must be in (0, ttl)";
  if crash_rate < 0. || crash_rate > 1. then
    invalid_arg "Net_churn.make_config: crash_rate must be in [0, 1]";
  if stale_wakeup < 0. || stale_wakeup > 1. then
    invalid_arg "Net_churn.make_config: stale_wakeup must be in [0, 1]";
  (* Where a renew can be lost, holds must end safely inside the
     unrenewed lease lifetime: renewals are belt and braces, never
     load-bearing.  A network that loses nothing needs no such margin. *)
  if
    (faults.Transport.drop > 0. || partition <> None)
    && (1.5 *. mean_hold) +. (4. *. rto) >= router.Router.ttl
  then
    invalid_arg
      "Net_churn.make_config: 1.5*mean_hold + 4*rto must stay below ttl on a lossy network";
  (* A silently crashed shard may have served renews until one heartbeat
     period after its last heartbeat; suspicion starts the grace clock at
     last + suspicion, so grace must absorb a full lease lifetime plus
     the heartbeat period plus in-flight delivery on both legs. *)
  if router.Router.grace < router.Router.ttl +. hb_every +. (2. *. maxd) then
    invalid_arg "Net_churn.make_config: grace must be >= ttl + hb_every + 2*max_delay";
  (* Safe-eviction bound: no duplicate of a rid can arrive after its
     client's last possible retransmit plus the delivery bound.  The
     retransmit horizon is dominated by queue polling. *)
  let horizon = rto *. float_of_int (max_polls router + rto_retries + 8) in
  if dedup_window < horizon +. (2. *. maxd) then
    invalid_arg "Net_churn.make_config: dedup_window below the retransmit horizon";
  (match partition with
  | Some p when p.p_duration <= 0. || p.p_every <= 0. || p.p_both < 0. || p.p_both > 1.
    ->
    invalid_arg "Net_churn.make_config: malformed partition plan"
  | _ -> ());
  (match shard_crash_every with
  | Some e when e <= 0. -> invalid_arg "Net_churn.make_config: malformed crash plan"
  | _ -> ());
  if shard_restart <= 0. then
    invalid_arg "Net_churn.make_config: shard_restart must be > 0";
  (* A plan that re-arms itself at the same instant would spin until the
     livelock guard; a burst must fit its population. *)
  (match stall with
  | Some st when st.st_every <= 0. || st.st_duration <= 0. ->
    invalid_arg "Net_churn.make_config: malformed stall plan"
  | _ -> ());
  (match handoff with
  | Some h
    when h.h_every <= 0. || h.h_crash_src < 0. || h.h_crash_dst < 0.
         || h.h_crash_src +. h.h_crash_dst > 1. ->
    invalid_arg "Net_churn.make_config: malformed handoff plan"
  | _ -> ());
  let check_burst what ~n = function
    | Some b when b.b_at < 0 || b.b_width < 1 || b.b_failures < 1 || b.b_failures >= n ->
      invalid_arg (Printf.sprintf "Net_churn.make_config: malformed %s burst" what)
    | _ -> ()
  in
  check_burst "shard" ~n:router.Router.shards shard_burst;
  check_burst "client" ~n:clients client_burst;
  {
    clients;
    sessions_target;
    router;
    faults;
    hb_every;
    suspicion;
    dedup_window;
    zipf_s;
    mean_hold;
    mean_think;
    renew_every;
    crash_rate;
    stale_wakeup;
    client_restart_delay;
    max_attempts;
    partition;
    shard_crash_every;
    shard_restart;
    shard_burst;
    client_burst;
    stall;
    handoff;
  }

(* {2 Wire types} *)

type op =
  | Op_acquire of { session : int; key : int; hint : int option }
  | Op_renew of Router.gfence
  | Op_use of Router.gfence
  | Op_release of Router.gfence

type req = { rq_client : int; rq_seq : int; rq_op : op }

type body =
  | B_granted of { slice : int; shard : int; fence : Router.gfence }
  | B_queued
  | B_shed
  | B_busy of [ `Down | `Handoff ]
  | B_redirect of { shard : int }
  | B_timeout
  | B_fenced
  | B_ok
  | B_renewed of float  (* the expiry the service set *)

type msg =
  | M_req of req
  | M_fwd of { shard : int; slice : int; epoch : int; req : req }
  | M_rep of { rp_client : int; rp_seq : int; rp_body : body }
  | M_hb of { shard : int; incarnation : int }

(* {2 Client state} *)

type phase =
  | Idle
  | Acquiring of { seq : int }
  | Queued_wait of { seq : int }
  | Holding of Router.gfence
  | Releasing of { seq : int; fence : Router.gfence }
  | Crashed
  | Finished

type client = {
  key : int;
  c_slice : int;
  think_scale : float;
  mutable phase : phase;
  mutable gen : int;  (* bumped at every transition; stale timers are dropped *)
  mutable session : int option;
  mutable seq : int;  (* strictly increasing request ids — the dedup key *)
  mutable attempts : int;  (* whole-request attempts this session *)
  mutable rto_count : int;  (* retransmits of the rid in flight *)
  mutable prev_delay : int;  (* decorrelated-jitter walk state *)
  mutable renew_pending : (int * int) option;  (* seq, resends *)
  mutable hold_end : float;
  mutable lease_end : float;  (* expiry of the held lease, as granted or renewed *)
  mutable hint : int option;
  mutable acq_d_gen : int;  (* slice disruption gen when the rid was first sent *)
  mutable d_gen : int;  (* ... when the grant was accepted *)
}

type ev =
  | E_start of { client : int; gen : int }
  | E_rto of { client : int; gen : int }
  | E_renew of { client : int; gen : int }
  | E_renew_rto of { client : int; gen : int; seq : int }
  | E_finish of { client : int; gen : int }
  | E_client_crash of { client : int; gen : int }
  | E_client_restart of { client : int; gen : int }
  | E_stale of { fence : Router.gfence }
  | E_hb of { shard : int }
  | E_partition of unit
  | E_shard_crash of unit
  | E_burst_crash of { shard : int }
  | E_client_burst of { client : int }
  | E_shard_restart of { shard : int }
  | E_stall of unit
  | E_handoff of unit
  | E_tick of unit

type summary = {
  sessions : int;
  client_crashes : int;
  client_restarts : int;
  shard_crashes : int;
  shard_restarts : int;
  partitions : int;
  shard_stalls : int;
  abandoned : int;
  retries : int;
  resends : int;
  timeouts : int;
  lost_tickets : int;
  redirects : int;
  shard_down_busy : int;
  in_handoff_busy : int;
  sheds : int;
  expected_fenced : int;
  unexpected_fenced : int;
  releases_dropped : int;
  late_grants_released : int;
  double_grants : int;
  stale_ops : int;
  stale_rejected : int;
  stale_ok : int;
  events : int;
  sim_time : float;
  peak_held : int;
  final_held : int;
  livelocked : bool;
  violation : (string * string) option;
  audit_near_misses : int;
  gaudit_violations : int;
  gaudit_live : int;
  net : Transport.stats;
  dedup : Dedup.stats;
  detector : Router.detector_stats;
  router : Router.stats;
  service : Service.stats;
  h_probes : Hist.t;
  h_reclaim : Hist.t;
  h_wait : Hist.t;
  h_lifetime : Hist.t;
}

let no_stats =
  {
    Service.grants = 0;
    queued = 0;
    renews = 0;
    releases = 0;
    fenced = 0;
    sheds_high_water = 0;
    sheds_queue_full = 0;
    expired_requests = 0;
    reclaims = 0;
    validates = 0;
  }

let add_stats (a : Service.stats) (b : Service.stats) =
  {
    Service.grants = a.grants + b.grants;
    queued = a.queued + b.queued;
    renews = a.renews + b.renews;
    releases = a.releases + b.releases;
    fenced = a.fenced + b.fenced;
    sheds_high_water = a.sheds_high_water + b.sheds_high_water;
    sheds_queue_full = a.sheds_queue_full + b.sheds_queue_full;
    expired_requests = a.expired_requests + b.expired_requests;
    reclaims = a.reclaims + b.reclaims;
    validates = a.validates + b.validates;
  }

(* Bodies created with an [obs] share the registry's histograms, so each
   distinct histogram is merged once. *)
let merge_hists hists =
  let rec go seen acc = function
    | [] -> acc
    | h :: rest ->
      if List.memq h seen then go seen acc rest else go (h :: seen) (Hist.merge acc h) rest
  in
  go [] (Hist.create ()) hists

let run ?obs ?tap (cfg : config) ~seed =
  let stream = Stream.create seed in
  let rng = Stream.fork_named stream ~name:"net-churn-driver" in
  let net_rng = Stream.fork_named stream ~name:"net-transport" in
  let minter_rng = Stream.fork_named stream ~name:"minter" in
  let sim_now = ref 0. in
  let clock = Clock.of_fn ~label:"net-churn-sim" (fun () -> !sim_now) in
  let router =
    Router.create ?obs ?tap ~clock ~seed:(Int64.logxor seed 0x7E7_D0_5EL) cfg.router
  in
  Router.enable_detector router ~suspicion:cfg.suspicion;
  let net : msg Transport.t = Transport.create ~faults:cfg.faults ~rng:net_rng () in
  let minter = Minter.create ~rng:minter_rng () in
  let zipf = Zipf.create ~s:cfg.zipf_s ~n:cfg.clients () in
  let retry_policy = Retry.make_policy ~attempts:(cfg.max_attempts + 1) () in
  let n_slices = Router.slices router in
  let n_shards = cfg.router.Router.shards in
  let ttl = cfg.router.Router.ttl in
  let max_polls = max_polls cfg.router in
  (* Bumped whenever a slice provably loses (or will lose) its body;
     grants accepted before the bump are *expected* to be fenced. *)
  let disruption = Array.make n_slices 0 in
  (* One dedup table per slice: the table is part of the slice state, so
     a clean handoff carries it along (same index) and a crash loses it
     together with the body (see [retire_dedup]). *)
  let dedup = Array.init n_slices (fun _ -> Dedup.create ~window:cfg.dedup_window ()) in
  let dedup_retired =
    { Dedup.fresh = 0; replays = 0; stale = 0; evictions = 0 }
  in
  let retire_dedup slice =
    let s = Dedup.stats dedup.(slice) in
    dedup_retired.Dedup.fresh <- dedup_retired.Dedup.fresh + s.Dedup.fresh;
    dedup_retired.Dedup.replays <- dedup_retired.Dedup.replays + s.Dedup.replays;
    dedup_retired.Dedup.stale <- dedup_retired.Dedup.stale + s.Dedup.stale;
    dedup_retired.Dedup.evictions <- dedup_retired.Dedup.evictions + s.Dedup.evictions;
    dedup.(slice) <- Dedup.create ~window:cfg.dedup_window ()
  in
  (* rid -> slice disruption generation at its (only legitimate) grant
     execution; a second execution at the same generation is an
     at-most-once violation. *)
  let granted_rids : (int * int, int) Hashtbl.t = Hashtbl.create 1024 in
  let incarnation = Array.make n_shards 0 in
  let clients =
    Array.init cfg.clients (fun rank ->
        let pressure = Zipf.relative_pressure zipf rank in
        let think_scale = max 0.05 (1. /. sqrt pressure) in
        let key = rank * n_slices / cfg.clients in
        {
          key;
          c_slice = Router.slice_of_key router ~key;
          think_scale;
          phase = Idle;
          gen = 0;
          session = None;
          seq = 0;
          attempts = 0;
          rto_count = 0;
          prev_delay = 0;
          renew_pending = None;
          hold_end = 0.;
          lease_end = 0.;
          hint = None;
          acq_d_gen = 0;
          d_gen = 0;
        })
  in
  let heap : ev Heap.t = Heap.create () in
  let minted = ref 0 in
  let client_crashes = ref 0 in
  let client_restarts = ref 0 in
  let shard_crashes = ref 0 in
  let shard_restarts = ref 0 in
  let partitions = ref 0 in
  let shard_stalls = ref 0 in
  let abandoned = ref 0 in
  let retries = ref 0 in
  let resends = ref 0 in
  let timeouts = ref 0 in
  let lost_tickets = ref 0 in
  let redirects = ref 0 in
  let shard_down_busy = ref 0 in
  let in_handoff_busy = ref 0 in
  let sheds = ref 0 in
  let expected_fenced = ref 0 in
  let unexpected_fenced = ref 0 in
  let releases_dropped = ref 0 in
  let late_grants_released = ref 0 in
  let double_grants = ref 0 in
  let stale_ops = ref 0 in
  let stale_rejected = ref 0 in
  let stale_ok = ref 0 in
  let peak_held = ref 0 in
  (* Set by every grant the driver sees; the loop re-reads the held
     count only after an iteration that set it (see [run]'s loop). *)
  let granted = ref false in
  let n_events = ref 0 in
  let livelocked = ref false in
  let violation = ref None in
  let active_clients = ref cfg.clients in
  let partition_rr = ref 0 in
  let crash_rr = ref 0 in
  let stall_rr = ref 0 in
  let handoff_rr = ref 0 in
  let ghost_next = ref cfg.clients in
  (* (slice, ticket) -> (client, rid seq), for turning queue completions
     back into replies to the rid that enqueued. *)
  let waiting = ref [] in
  let jitter ~around = around *. (0.5 +. Sample.float_unit rng) in
  let schedule ~at ev = Heap.push heap ~time:(max at !sim_now) ~aux:0 ev in
  let think c = jitter ~around:(cfg.mean_think *. c.think_scale) in

  let send ~src ~dst m = Transport.send net ~now:!sim_now ~src ~dst m in
  let send_req idx (o : op) =
    let c = clients.(idx) in
    c.seq <- c.seq + 1;
    send ~src:(Transport.Client idx) ~dst:Transport.Router
      (M_req { rq_client = idx; rq_seq = c.seq; rq_op = o });
    c.seq
  in
  let resend_req idx ~seq (o : op) =
    incr resends;
    send ~src:(Transport.Client idx) ~dst:Transport.Router
      (M_req { rq_client = idx; rq_seq = seq; rq_op = o })
  in
  let acquire_op c = Op_acquire { session = Option.get c.session; key = c.key; hint = c.hint } in

  let note_grant ~client ~seq ~slice =
    granted := true;
    let rid = (client, seq) in
    let gen = disruption.(slice) in
    (match Hashtbl.find_opt granted_rids rid with
    | Some g when g = gen -> incr double_grants
    | _ -> ());
    Hashtbl.replace granted_rids rid gen
  in

  let set_finished c =
    if c.phase <> Finished then begin
      c.gen <- c.gen + 1;
      c.phase <- Finished;
      decr active_clients
    end
  in

  let begin_session_attempt idx ~at =
    let c = clients.(idx) in
    c.gen <- c.gen + 1;
    c.phase <- Idle;
    schedule ~at (E_start { client = idx; gen = c.gen })
  in

  let finish_session idx ~next_in =
    let c = clients.(idx) in
    c.session <- None;
    c.attempts <- 0;
    c.prev_delay <- 0;
    c.renew_pending <- None;
    if !minted >= cfg.sessions_target then set_finished c
    else begin_session_attempt idx ~at:(!sim_now +. next_in)
  in

  let backoff c =
    let d = Retry.jittered_delay retry_policy ~rng ~prev:c.prev_delay in
    c.prev_delay <- d;
    float_of_int d *. backoff_unit
  in

  let retry_or_abandon idx =
    let c = clients.(idx) in
    c.attempts <- c.attempts + 1;
    if c.attempts > cfg.max_attempts then begin
      incr abandoned;
      finish_session idx ~next_in:(think c)
    end
    else begin
      incr retries;
      c.gen <- c.gen + 1;
      c.phase <- Idle;
      schedule ~at:(!sim_now +. backoff c) (E_start { client = idx; gen = c.gen })
    end
  in

  (* A fence is expected after a disruption of the slice since the
     grant, or once the lease's own expiry has passed: a renew that meets
     a dark shard is lost, and a client retrying a release stops
     renewing. *)
  let classify_fenced idx slice =
    let c = clients.(idx) in
    if disruption.(slice) > c.d_gen || !sim_now >= c.lease_end then incr expected_fenced
    else incr unexpected_fenced
  in

  let send_renew idx =
    let c = clients.(idx) in
    match c.phase with
    | Holding fence when c.renew_pending = None ->
      let seq = send_req idx (Op_renew fence) in
      c.renew_pending <- Some (seq, 0);
      schedule ~at:(!sim_now +. rto) (E_renew_rto { client = idx; gen = c.gen; seq })
    | _ -> ()
  in

  let enter_holding idx ~slice ~shard fence =
    let c = clients.(idx) in
    c.gen <- c.gen + 1;
    c.attempts <- 0;
    c.rto_count <- 0;
    c.hint <- Some shard;
    c.d_gen <- c.acq_d_gen;
    c.renew_pending <- None;
    ignore slice;
    c.phase <- Holding fence;
    c.lease_end <- !sim_now +. ttl;
    let hold = jitter ~around:cfg.mean_hold in
    c.hold_end <- !sim_now +. hold;
    if Sample.bernoulli rng cfg.crash_rate then
      schedule
        ~at:(!sim_now +. (Sample.float_unit rng *. hold))
        (E_client_crash { client = idx; gen = c.gen })
    else begin
      schedule ~at:c.hold_end (E_finish { client = idx; gen = c.gen });
      schedule ~at:(!sim_now +. cfg.renew_every) (E_renew { client = idx; gen = c.gen })
    end;
    (* Renew immediately: the grant may have spent several reply-loss
       poll rounds in flight, so refresh the lease's expiry before the
       hold clock starts mattering. *)
    send_renew idx
  in

  (* {2 Fault injection} *)

  let disrupt_owned ~shard =
    for slice = 0 to n_slices - 1 do
      if Router.owner router ~slice = Some shard then
        disruption.(slice) <- disruption.(slice) + 1
    done
  in

  (* Every shard crash is silent: the router learns of it only from
     missing heartbeats or the restart's incarnation bump.  The slices
     lost are the shard's resident bodies at the directory's epoch —
     owned, in transit from it, or orphaned under a false suspicion —
     and with each body go its dedup table and its pending tickets (an
     adopted body restarts tickets at 0). *)
  let silent_crash shard =
    let sh = Router.shard router ~id:shard in
    if Shard.alive sh ~now:!sim_now then begin
      let lost =
        List.filter_map
          (fun (sl : Shard.slice) ->
            let slice = sl.Shard.sl_id in
            if sl.Shard.sl_epoch = Router.slice_epoch router ~slice then Some slice else None)
          (Shard.slices sh)
      in
      List.iter
        (fun slice ->
          disruption.(slice) <- disruption.(slice) + 1;
          retire_dedup slice)
        lost;
      waiting := List.filter (fun ((s, _), _) -> not (List.mem s lost)) !waiting;
      Shard.crash sh ~now:!sim_now;
      incr shard_crashes;
      schedule
        ~at:(!sim_now +. jitter ~around:cfg.shard_restart)
        (E_shard_restart { shard })
    end
  in

  (* {2 Node message handlers} *)

  let reply_from src (req : req) body =
    send ~src ~dst:(Transport.Client req.rq_client)
      (M_rep { rp_client = req.rq_client; rp_seq = req.rq_seq; rp_body = body })
  in

  let on_router m =
    match m with
    | M_hb { shard; incarnation } -> Router.heartbeat router ~shard ~incarnation
    | M_req req -> (
      let forward ~slice =
        match Router.route router ~slice with
        | Error (Router.In_handoff _) -> reply_from Transport.Router req (B_busy `Handoff)
        | Error (Router.Shard_down _ | Router.Redirected _) ->
          reply_from Transport.Router req (B_busy `Down)
        | Ok (shard, epoch) ->
          send ~src:Transport.Router ~dst:(Transport.Shard shard)
            (M_fwd { shard; slice; epoch; req })
      in
      match req.rq_op with
      | Op_acquire { key; hint; _ } -> (
        let slice = Router.slice_of_key router ~key in
        match Router.route router ~slice with
        | Error (Router.In_handoff _) -> reply_from Transport.Router req (B_busy `Handoff)
        | Error (Router.Shard_down _ | Router.Redirected _) ->
          reply_from Transport.Router req (B_busy `Down)
        | Ok (shard, epoch) -> (
          match hint with
          | Some h when h <> shard -> reply_from Transport.Router req (B_redirect { shard })
          | _ ->
            send ~src:Transport.Router ~dst:(Transport.Shard shard)
              (M_fwd { shard; slice; epoch; req })))
      | Op_renew gf | Op_use gf | Op_release gf -> forward ~slice:gf.Router.gf_slice)
    | M_fwd _ | M_rep _ -> ()
  in

  let execute sl ~slice ~shard (req : req) =
    match req.rq_op with
    | Op_acquire { session; _ } -> (
      match Service.acquire sl.Shard.sl_svc ~session with
      | Service.Granted grant ->
        note_grant ~client:req.rq_client ~seq:req.rq_seq ~slice;
        B_granted
          {
            slice;
            shard;
            fence = { Router.gf_slice = slice; gf_fence = grant.Lease.g_fence };
          }
      | Service.Queued ticket ->
        waiting := ((slice, ticket), (req.rq_client, req.rq_seq)) :: !waiting;
        B_queued
      | Service.Shed _ -> B_shed)
    | Op_renew gf -> (
      match Service.renew sl.Shard.sl_svc ~fence:gf.Router.gf_fence with
      | Ok expiry -> B_renewed expiry
      | Error `Fenced -> B_fenced)
    | Op_use gf -> (
      match Service.use sl.Shard.sl_svc ~fence:gf.Router.gf_fence with
      | Ok () -> B_ok
      | Error `Fenced -> B_fenced)
    | Op_release gf -> (
      match Service.release sl.Shard.sl_svc ~fence:gf.Router.gf_fence with
      | Ok _ -> B_ok
      | Error `Fenced -> B_fenced)
  in

  let on_shard s m =
    match m with
    | M_fwd { shard; slice; epoch; req } when shard = s -> (
      let sh = Router.shard router ~id:s in
      if Shard.alive sh ~now:!sim_now then begin
        let d = dedup.(slice) in
        match Dedup.admit d ~client:req.rq_client ~seq:req.rq_seq ~now:!sim_now with
        | Dedup.Replay b -> reply_from (Transport.Shard s) req b
        | Dedup.Stale -> ()
        | Dedup.Fresh -> (
          match Shard.find_slice sh ~slice with
          | Some sl when sl.Shard.sl_epoch = epoch ->
            let b = execute sl ~slice ~shard:s req in
            Dedup.record d ~client:req.rq_client ~seq:req.rq_seq ~now:!sim_now b;
            reply_from (Transport.Shard s) req b
          | _ ->
            (* The directory moved on while the forward was in flight:
               refuse without recording — the retransmit will be routed
               afresh and must be allowed to execute. *)
            reply_from (Transport.Shard s) req (B_busy `Down))
      end)
    | M_fwd _ | M_req _ | M_rep _ | M_hb _ -> ()
  in

  (* {2 Client reply handlers} *)

  let acquire_reply idx body =
    let c = clients.(idx) in
    match body with
    | B_granted { slice; shard; fence } -> enter_holding idx ~slice ~shard fence
    | B_queued ->
      c.gen <- c.gen + 1;
      c.rto_count <- 0;
      (match c.phase with Acquiring { seq } -> c.phase <- Queued_wait { seq } | _ -> ());
      schedule ~at:(!sim_now +. rto) (E_rto { client = idx; gen = c.gen })
    | B_redirect { shard } ->
      incr redirects;
      c.hint <- Some shard;
      (match c.phase with
      | Acquiring { seq } -> resend_req idx ~seq (acquire_op c)
      | _ -> ())
    | B_shed ->
      incr sheds;
      retry_or_abandon idx
    | B_busy `Down ->
      incr shard_down_busy;
      c.hint <- None;
      retry_or_abandon idx
    | B_busy `Handoff ->
      incr in_handoff_busy;
      retry_or_abandon idx
    | B_timeout -> retry_or_abandon idx
    | B_fenced | B_ok | B_renewed _ -> ()
  in

  let queued_reply idx body =
    match body with
    | B_granted { slice; shard; fence } -> enter_holding idx ~slice ~shard fence
    | B_timeout -> retry_or_abandon idx
    | B_busy `Down -> incr shard_down_busy
    | B_busy `Handoff -> incr in_handoff_busy
    | B_queued | B_shed | B_redirect _ | B_fenced | B_ok | B_renewed _ -> ()
  in

  let renew_reply idx fence body =
    let c = clients.(idx) in
    match body with
    | B_renewed expiry ->
      c.renew_pending <- None;
      c.lease_end <- expiry
    | B_fenced ->
      c.renew_pending <- None;
      classify_fenced idx fence.Router.gf_slice;
      finish_session idx ~next_in:(think c)
    | B_busy `Down -> incr shard_down_busy
    | B_busy `Handoff -> incr in_handoff_busy
    | B_granted _ | B_queued | B_shed | B_redirect _ | B_timeout | B_ok -> ()
  in

  let release_reply idx fence body =
    let c = clients.(idx) in
    match body with
    | B_ok -> finish_session idx ~next_in:(think c)
    | B_fenced ->
      classify_fenced idx fence.Router.gf_slice;
      finish_session idx ~next_in:(think c)
    | B_busy `Down -> incr shard_down_busy
    | B_busy `Handoff -> incr in_handoff_busy
    | B_granted _ | B_queued | B_shed | B_redirect _ | B_timeout | B_renewed _ -> ()
  in

  let ghost_reply body =
    match body with
    | B_ok | B_renewed _ -> incr stale_ok
    | B_fenced | B_busy _ | B_timeout -> incr stale_rejected
    | B_granted _ | B_queued | B_shed | B_redirect _ -> ()
  in

  let on_client idx (rp_seq : int) body =
    if idx >= cfg.clients then ghost_reply body
    else begin
      let c = clients.(idx) in
      let handled =
        match c.phase with
        | Acquiring { seq } when rp_seq = seq ->
          acquire_reply idx body;
          true
        | Queued_wait { seq } when rp_seq = seq ->
          queued_reply idx body;
          true
        | Holding fence
          when match c.renew_pending with Some (s, _) -> rp_seq = s | None -> false ->
          renew_reply idx fence body;
          true
        | Releasing { seq; fence } when rp_seq = seq ->
          release_reply idx fence body;
          true
        | _ -> false
      in
      if not handled then
        match body with
        | B_granted { fence; _ } ->
          (* A grant nobody is waiting for.  A duplicate delivery of the
             lease we already hold is ignored; anything else (abandoned
             rid, crashed requester) is handed straight back. *)
          let held =
            match c.phase with
            | Holding f -> Some f
            | Releasing { fence = f; _ } -> Some f
            | _ -> None
          in
          if held <> Some fence then begin
            incr late_grants_released;
            ignore (send_req idx (Op_release fence))
          end
        | _ -> ()
    end
  in

  let handle_msg _src dst m =
    incr n_events;
    match (dst : Transport.addr) with
    | Transport.Router -> on_router m
    | Transport.Shard s -> on_shard s m
    | Transport.Client i -> (
      match m with
      | M_rep { rp_seq; rp_body; _ } -> on_client i rp_seq rp_body
      | M_req _ | M_fwd _ | M_hb _ -> ())
  in

  (* Queue completions surface at the owning shard: record the final
     outcome over the provisional B_queued (so later retransmits replay
     it) and push a reply to the rid's client. *)
  let handle_completion { Router.c_slice; c_shard; c_done } =
    let ticket, body =
      match c_done with
      | Service.Done { ticket; grant; _ } ->
        granted := true;
        ( ticket,
          B_granted
            {
              slice = c_slice;
              shard = c_shard;
              fence = { Router.gf_slice = c_slice; gf_fence = grant.Lease.g_fence };
            } )
      | Service.Timed_out { ticket; _ } -> (ticket, B_timeout)
    in
    let key = (c_slice, ticket) in
    match List.assoc_opt key !waiting with
    | Some (client, seq) ->
      waiting := List.remove_assoc key !waiting;
      (match c_done with
      | Service.Done _ -> note_grant ~client ~seq ~slice:c_slice
      | Service.Timed_out _ -> ());
      Dedup.record dedup.(c_slice) ~client ~seq ~now:!sim_now body;
      send ~src:(Transport.Shard c_shard) ~dst:(Transport.Client client)
        (M_rep { rp_client = client; rp_seq = seq; rp_body = body })
    | None -> (
      (* The rid bookkeeping died with a crashed body: nobody will
         ever claim this grant, so hand it back at once. *)
      match c_done with
      | Service.Done { grant; _ } ->
        incr late_grants_released;
        ignore
          (Router.release router
             ~fence:{ Router.gf_slice = c_slice; gf_fence = grant.Lease.g_fence })
      | Service.Timed_out _ -> ())
  in

  (* Almost every pump returns [] at the router's wake guard; that case
     costs nothing here either. *)
  let rec handle_completions = function
    | [] -> ()
    | c :: rest ->
      handle_completion c;
      handle_completions rest
  in

  let pump () = handle_completions (Router.pump router) in

  let crash_holding idx =
    let c = clients.(idx) in
    match c.phase with
    | Holding fence ->
      incr client_crashes;
      c.gen <- c.gen + 1;
      c.phase <- Crashed;
      c.renew_pending <- None;
      schedule
        ~at:(!sim_now +. jitter ~around:cfg.client_restart_delay)
        (E_client_restart { client = idx; gen = c.gen });
      if Sample.bernoulli rng cfg.stale_wakeup then
        schedule
          ~at:(!sim_now +. (1.5 *. ttl) +. (Sample.float_unit rng *. ttl))
          (E_stale { fence })
    | _ -> ()
  in

  (* {2 Seeding} *)

  let arrivals = Arrival.times (Arrival.Staggered { gap = 1 }) ~n:cfg.clients in
  Array.iteri
    (fun idx at -> begin_session_attempt idx ~at:(float_of_int at *. 0.5))
    arrivals;
  for shard = 0 to n_shards - 1 do
    schedule
      ~at:(float_of_int shard *. cfg.hb_every /. float_of_int n_shards)
      (E_hb { shard })
  done;
  (match cfg.partition with
  | None -> ()
  | Some p -> schedule ~at:p.p_every (E_partition ()));
  (match cfg.shard_crash_every with
  | None -> ()
  | Some every -> schedule ~at:every (E_shard_crash ()));
  (* Correlated crash bursts over the shard fleet and over the clients;
     a burst-crashed client goes down only if it holds a lease when its
     event fires. *)
  let burst b ~n ev =
    List.iter
      (fun (time, who) -> schedule ~at:(float_of_int time) (ev who))
      (Crash_pattern.burst ~rng ~n ~failures:b.b_failures ~at:b.b_at ~width:b.b_width)
  in
  Option.iter (fun b -> burst b ~n:n_shards (fun shard -> E_burst_crash { shard })) cfg.shard_burst;
  Option.iter
    (fun b -> burst b ~n:cfg.clients (fun client -> E_client_burst { client }))
    cfg.client_burst;
  Option.iter (fun st -> schedule ~at:st.st_every (E_stall ())) cfg.stall;
  Option.iter (fun h -> schedule ~at:h.h_every (E_handoff ())) cfg.handoff;
  schedule ~at:(ttl /. 2.) (E_tick ());

  let fresh c gen = c.gen = gen in

  let handle_event ev =
    match ev with
    | E_start { client = idx; gen } ->
      let c = clients.(idx) in
      if fresh c gen then begin
        (match c.session with
        | Some _ -> ()
        | None ->
          if !minted < cfg.sessions_target then begin
            c.session <- Some (Minter.mint minter);
            incr minted
          end);
        match c.session with
        | None -> set_finished c
        | Some _ ->
          c.gen <- c.gen + 1;
          c.rto_count <- 0;
          c.acq_d_gen <- disruption.(c.c_slice);
          let seq = send_req idx (acquire_op c) in
          c.phase <- Acquiring { seq };
          schedule ~at:(!sim_now +. rto) (E_rto { client = idx; gen = c.gen })
      end
    | E_rto { client = idx; gen } ->
      let c = clients.(idx) in
      if fresh c gen then (
        match c.phase with
        | Acquiring { seq } ->
          c.rto_count <- c.rto_count + 1;
          if c.rto_count > rto_retries then begin
            incr timeouts;
            retry_or_abandon idx
          end
          else begin
            resend_req idx ~seq (acquire_op c);
            schedule ~at:(!sim_now +. rto) (E_rto { client = idx; gen = c.gen })
          end
        | Queued_wait { seq } ->
          c.rto_count <- c.rto_count + 1;
          if c.rto_count > max_polls then begin
            incr lost_tickets;
            retry_or_abandon idx
          end
          else begin
            resend_req idx ~seq (acquire_op c);
            schedule ~at:(!sim_now +. rto) (E_rto { client = idx; gen = c.gen })
          end
        | Releasing { seq; fence } ->
          c.rto_count <- c.rto_count + 1;
          if c.rto_count > 3 then begin
            (* Give up releasing into a lossy/dark path: the lease
               expires and is reclaimed on its own. *)
            incr releases_dropped;
            finish_session idx ~next_in:(think c)
          end
          else begin
            resend_req idx ~seq (Op_release fence);
            schedule ~at:(!sim_now +. rto) (E_rto { client = idx; gen = c.gen })
          end
        | Idle | Holding _ | Crashed | Finished -> ())
    | E_renew { client = idx; gen } ->
      let c = clients.(idx) in
      if fresh c gen then (
        match c.phase with
        | Holding _ ->
          send_renew idx;
          if !sim_now +. cfg.renew_every < c.hold_end then
            schedule ~at:(!sim_now +. cfg.renew_every)
              (E_renew { client = idx; gen = c.gen })
        | _ -> ())
    | E_renew_rto { client = idx; gen; seq } ->
      let c = clients.(idx) in
      if fresh c gen then (
        match (c.phase, c.renew_pending) with
        | Holding fence, Some (s, tries) when s = seq ->
          if tries >= 4 then c.renew_pending <- None
          else begin
            c.renew_pending <- Some (s, tries + 1);
            resend_req idx ~seq (Op_renew fence);
            schedule ~at:(!sim_now +. rto)
              (E_renew_rto { client = idx; gen = c.gen; seq })
          end
        | _ -> ())
    | E_finish { client = idx; gen } ->
      let c = clients.(idx) in
      if fresh c gen then (
        match c.phase with
        | Holding fence ->
          c.gen <- c.gen + 1;
          c.rto_count <- 0;
          c.renew_pending <- None;
          let seq = send_req idx (Op_release fence) in
          c.phase <- Releasing { seq; fence };
          schedule ~at:(!sim_now +. rto) (E_rto { client = idx; gen = c.gen })
        | _ -> ())
    | E_client_crash { client = idx; gen } ->
      let c = clients.(idx) in
      if fresh c gen then crash_holding idx
    | E_client_restart { client = idx; gen } ->
      let c = clients.(idx) in
      if fresh c gen then begin
        incr client_restarts;
        c.session <- None;
        c.attempts <- 0;
        c.prev_delay <- 0;
        if !minted >= cfg.sessions_target then set_finished c
        else begin_session_attempt idx ~at:!sim_now
      end
    | E_stale { fence } ->
      (* The ghost of a crashed incarnation replays its fence from a
         fresh network identity; every operation must come back fenced,
         busy, or not at all — a B_ok is a fencing hole. *)
      let g = !ghost_next in
      ghost_next := g + 1;
      stale_ops := !stale_ops + 3;
      List.iteri
        (fun i o ->
          send ~src:(Transport.Client g) ~dst:Transport.Router
            (M_req { rq_client = g; rq_seq = i + 1; rq_op = o }))
        [ Op_renew fence; Op_use fence; Op_release fence ]
    | E_hb { shard } ->
      let sh = Router.shard router ~id:shard in
      if Shard.alive sh ~now:!sim_now then
        send ~src:(Transport.Shard shard) ~dst:Transport.Router
          (M_hb { shard; incarnation = incarnation.(shard) });
      if !active_clients > 0 then
        schedule ~at:(!sim_now +. cfg.hb_every) (E_hb { shard })
    | E_partition () -> (
      match cfg.partition with
      | None -> ()
      | Some p ->
        let shard = !partition_rr mod n_shards in
        incr partition_rr;
        if
          Shard.alive (Router.shard router ~id:shard) ~now:!sim_now
          && not (Transport.partitioned net ~now:!sim_now
                    ~src:(Transport.Shard shard) ~dst:Transport.Router)
        then begin
          incr partitions;
          let until = !sim_now +. jitter ~around:p.p_duration in
          Transport.partition net ~src:(Transport.Shard shard) ~dst:Transport.Router
            ~until;
          if Sample.bernoulli rng p.p_both then
            Transport.partition net ~src:Transport.Router ~dst:(Transport.Shard shard)
              ~until;
          (* A partition long enough to trigger suspicion can cost the
             shard its slices (adoption) or its holders their renews;
             either way the fences issued before it are doomed. *)
          if until -. !sim_now >= cfg.suspicion then disrupt_owned ~shard
        end;
        if !active_clients > 0 then
          schedule ~at:(!sim_now +. p.p_every) (E_partition ()))
    | E_shard_crash () -> (
      match cfg.shard_crash_every with
      | None -> ()
      | Some every ->
        let alive =
          let n = ref 0 in
          for s = 0 to n_shards - 1 do
            if Shard.alive (Router.shard router ~id:s) ~now:!sim_now then incr n
          done;
          !n
        in
        if alive * 2 > n_shards then begin
          let shard = !crash_rr mod n_shards in
          incr crash_rr;
          silent_crash shard
        end;
        if !active_clients > 0 then schedule ~at:(!sim_now +. every) (E_shard_crash ()))
    | E_burst_crash { shard } -> silent_crash shard
    | E_client_burst { client = idx } -> crash_holding idx
    | E_shard_restart { shard } ->
      let sh = Router.shard router ~id:shard in
      Shard.restart sh;
      incarnation.(shard) <- incarnation.(shard) + 1;
      incr shard_restarts;
      (* A rebooted shard announces itself immediately rather than
         waiting for its next heartbeat slot — this is the race the
         incarnation number exists for: if the announcement lands before
         the suspicion sweep, the router learns of the amnesiac restart
         only through the bump. *)
      send ~src:(Transport.Shard shard) ~dst:Transport.Router
        (M_hb { shard; incarnation = incarnation.(shard) })
    | E_stall () -> (
      match cfg.stall with
      | None -> ()
      | Some st ->
        let shard = !stall_rr mod n_shards in
        incr stall_rr;
        if Shard.alive (Router.shard router ~id:shard) ~now:!sim_now then begin
          (* A stall past the grace may see the slices adopted under the
             shard.  A shorter one only loses the renews sent into it,
             and a lease that expires meanwhile is fenced by expiry. *)
          if st.st_duration > cfg.router.Router.grace then disrupt_owned ~shard;
          Router.stall_shard router ~id:shard ~until:(!sim_now +. st.st_duration);
          incr shard_stalls
        end;
        if !active_clients > 0 then schedule ~at:(!sim_now +. st.st_every) (E_stall ()))
    | E_handoff () -> (
      match cfg.handoff with
      | None -> ()
      | Some h ->
        (* Forced rebalancing: rotate through the slices for one that can
           move to the next live shard.  The transit completes on a
           strictly later pump, so a crash injected now lands mid-handoff. *)
        let alive id = Shard.alive (Router.shard router ~id) ~now:!sim_now in
        let started = ref false and tries = ref 0 in
        while (not !started) && !tries < n_slices do
          let slice = !handoff_rr mod n_slices in
          incr handoff_rr;
          incr tries;
          match Router.owner router ~slice with
          | None -> ()
          | Some from_ -> (
            let dst = ref ((from_ + 1) mod n_shards) in
            while !dst <> from_ && not (alive !dst) do
              dst := (!dst + 1) mod n_shards
            done;
            let to_ = !dst in
            match Router.begin_handoff router ~slice ~to_ with
            | Error `Unavailable -> ()
            | Ok () ->
              started := true;
              let u = Sample.float_unit rng in
              if u < h.h_crash_src then silent_crash from_
              else if u < h.h_crash_src +. h.h_crash_dst then silent_crash to_)
        done;
        if !active_clients > 0 then schedule ~at:(!sim_now +. h.h_every) (E_handoff ()))
    | E_tick () ->
      Array.iter (fun d -> ignore (Dedup.sweep d ~now:!sim_now)) dedup;
      if !active_clients > 0 then
        schedule ~at:(!sim_now +. (ttl /. 2.)) (E_tick ())
  in

  (* [peak_held]: the total held count ([Router.total_held], summed over
     the bodies resident on the shards) rises only at a grant.  A body's
     own count rises only when [Service] grants: an acquire the driver
     executes ([note_grant]) or a queue completion the pump returns.  A
     body joins the sum in two ways only, and neither raises it: a
     handoff's [step_transits] detaches the body from the source shard
     and attaches it to the destination in one step, and an adoption
     attaches a fresh body that holds nothing.  A shard crash drops its
     resident bodies (a restart brings none back), and stale-body drops,
     releases and reclaims lower counts too.  So sampling the count after
     the iterations that granted finds the same maximum as sampling after
     every iteration, without walking every body per event.
     [test/test_service.ml] checks the claim on random router scripts. *)
  (try
     let continue_ = ref true in
     while !continue_ do
       if !n_events > max_events then begin
         livelocked := true;
         continue_ := false
       end
       else if Heap.is_empty heap && Transport.in_flight net = 0 then continue_ := false
       else begin
         (* A delivery goes before a timer due at the same instant.  The
            tests are bools: the times themselves would be boxed. *)
         if Transport.delivers_first net heap then begin
           if Transport.delivery_after net ~now:!sim_now then
             sim_now := Transport.next_delivery net;
           pump ();
           Transport.deliver net ~now:!sim_now handle_msg
         end
         else begin
           if Heap.top_after heap ~now:!sim_now then sim_now := Heap.top_time heap;
           let ev = Heap.take heap in
           incr n_events;
           pump ();
           handle_event ev
         end;
         if !granted then begin
           granted := false;
           let held = Router.total_held router in
           if held > !peak_held then peak_held := held
         end
       end
     done
   with Audit.Violation { kind; message } -> violation := Some (kind, message));
  let dedup_total =
    Array.fold_left
      (fun (acc : Dedup.stats) d ->
        let s = Dedup.stats d in
        acc.Dedup.fresh <- acc.Dedup.fresh + s.Dedup.fresh;
        acc.Dedup.replays <- acc.Dedup.replays + s.Dedup.replays;
        acc.Dedup.stale <- acc.Dedup.stale + s.Dedup.stale;
        acc.Dedup.evictions <- acc.Dedup.evictions + s.Dedup.evictions;
        acc)
      dedup_retired dedup
  in
  let bodies =
    List.concat_map
      (fun id ->
        List.map
          (fun (sl : Shard.slice) -> sl.Shard.sl_svc)
          (Shard.slices (Router.shard router ~id)))
      (List.init n_shards Fun.id)
  in
  let hist f = merge_hists (List.map f bodies) in
  {
    sessions = !minted;
    client_crashes = !client_crashes;
    client_restarts = !client_restarts;
    shard_crashes = !shard_crashes;
    shard_restarts = !shard_restarts;
    partitions = !partitions;
    shard_stalls = !shard_stalls;
    abandoned = !abandoned;
    retries = !retries;
    resends = !resends;
    timeouts = !timeouts;
    lost_tickets = !lost_tickets;
    redirects = !redirects;
    shard_down_busy = !shard_down_busy;
    in_handoff_busy = !in_handoff_busy;
    sheds = !sheds;
    expected_fenced = !expected_fenced;
    unexpected_fenced = !unexpected_fenced;
    releases_dropped = !releases_dropped;
    late_grants_released = !late_grants_released;
    double_grants = !double_grants;
    stale_ops = !stale_ops;
    stale_rejected = !stale_rejected;
    stale_ok = !stale_ok;
    events = !n_events;
    sim_time = !sim_now;
    peak_held = !peak_held;
    final_held = Router.total_held router;
    livelocked = !livelocked;
    violation = !violation;
    audit_near_misses = Router.audit_near_misses router;
    gaudit_violations = Router.gaudit_violations router;
    gaudit_live = Router.gaudit_live router;
    net = Transport.stats net;
    dedup = dedup_total;
    detector = Option.get (Router.detector_stats router);
    router = Router.stats router;
    service = List.fold_left (fun acc svc -> add_stats acc (Service.stats svc)) no_stats bodies;
    h_probes = hist Service.probes_hist;
    h_reclaim = hist Service.reclaim_lateness_hist;
    h_wait = hist Service.queue_wait_hist;
    h_lifetime = hist Service.lifetime_hist;
  }
