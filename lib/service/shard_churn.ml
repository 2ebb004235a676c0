module Clock = Renaming_clock.Clock
module Stream = Renaming_rng.Stream
module Sample = Renaming_rng.Sample
module Retry = Renaming_faults.Retry
module Arrival = Renaming_workload.Arrival
module Crash_pattern = Renaming_workload.Crash_pattern
module Zipf = Renaming_workload.Zipf
module Hist = Renaming_obs.Hist

type burst = { b_at : int; b_width : int; b_failures : int }
type stall_plan = { st_every : float; st_duration : float }

type handoff_plan = {
  h_every : float;
  h_crash_src : float;  (** P[crash the source shard mid-transit] *)
  h_crash_dst : float;  (** P[crash the destination shard mid-transit] *)
}

type config = {
  clients : int;
  sessions_target : int;
  router : Router.config;
  zipf_s : float;
  mean_hold : float;
  mean_think : float;
  renew_every : float;
  crash_rate : float;
  stale_wakeup : float;
  client_restart_delay : float;
  shard_restart_delay : float;
  max_attempts : int;
  backoff_unit : float;
  arrival : Arrival.pattern;
  shard_burst : burst option;
  client_burst : burst option;
  stall : stall_plan option;
  handoff : handoff_plan option;
  max_events : int;
}

let make_config ?(clients = 96) ?(sessions_target = 8_000)
    ?(router = Router.make_config ()) ?(zipf_s = 1.0) ?(mean_hold = 6.0)
    ?(mean_think = 4.0) ?(renew_every = 3.0) ?(crash_rate = 0.1)
    ?(stale_wakeup = 0.2) ?(client_restart_delay = 8.0)
    ?(shard_restart_delay = 30.0) ?(max_attempts = 8) ?(backoff_unit = 0.25)
    ?(arrival = Arrival.Staggered { gap = 1 }) ?shard_burst ?client_burst ?stall ?handoff
    ?(max_events = 200_000_000) () =
  if clients < 1 then invalid_arg "Shard_churn.make_config: clients must be >= 1";
  if sessions_target < 1 then
    invalid_arg "Shard_churn.make_config: sessions_target must be >= 1";
  if renew_every <= 0. || renew_every >= router.Router.ttl then
    invalid_arg "Shard_churn.make_config: renew_every must be in (0, ttl)";
  if crash_rate < 0. || crash_rate > 1. then
    invalid_arg "Shard_churn.make_config: crash_rate must be in [0, 1]";
  if stale_wakeup < 0. || stale_wakeup > 1. then
    invalid_arg "Shard_churn.make_config: stale_wakeup must be in [0, 1]";
  (match handoff with
  | Some h when h.h_crash_src +. h.h_crash_dst > 1.0 ->
    invalid_arg "Shard_churn.make_config: handoff crash probabilities exceed 1"
  | _ -> ());
  {
    clients;
    sessions_target;
    router;
    zipf_s;
    mean_hold;
    mean_think;
    renew_every;
    crash_rate;
    stale_wakeup;
    client_restart_delay;
    shard_restart_delay;
    max_attempts;
    backoff_unit;
    arrival;
    shard_burst;
    client_burst;
    stall;
    handoff;
    max_events;
  }

type phase =
  | Idle
  | Waiting of int * int  (* slice, ticket *)
  | Holding of Router.gfence
  | Crashed
  | Finished

type client = {
  rank : int;
  key : int;
  think_scale : float;
  mutable phase : phase;
  mutable gen : int;  (* bumped at every transition; stale timers are dropped *)
  mutable session : int option;
  mutable attempts : int;
  mutable prev_delay : int;  (* decorrelated-jitter walk state *)
  mutable hold_end : float;
  mutable lease_end : float;  (* expiry of the held lease, as granted or renewed *)
  mutable hint : int option;  (* cached owning shard for the client's slice *)
  mutable d_gen : int;  (* slice disruption generation at grant time *)
}

type ev =
  | E_start of { client : int; gen : int }
  | E_poll of { client : int; gen : int }
  | E_renew of { client : int; gen : int }
  | E_finish of { client : int; gen : int }
  | E_client_crash of { client : int; gen : int }
  | E_client_restart of { client : int; gen : int }
  | E_stale of { fence : Router.gfence }
  | E_client_burst of { client : int }
  | E_shard_crash of { shard : int }
  | E_shard_restart of { shard : int }
  | E_shard_stall of unit
  | E_handoff of unit
  | E_tick of unit

type summary = {
  sessions : int;
  client_crashes : int;
  client_restarts : int;
  shard_crashes : int;
  shard_restarts : int;
  shard_stalls : int;
  abandoned : int;
  stale_ops : int;
  stale_rejected : int;
  stale_ok : int;
  retries : int;
  redirects : int;
  shard_down_busy : int;
  in_handoff_busy : int;
  expected_fenced : int;
  unexpected_fenced : int;
  releases_dropped : int;
  lost_tickets : int;
  events : int;
  sim_time : float;
  peak_held : int;
  final_held : int;
  livelocked : bool;
  violation : (string * string) option;
  audit_near_misses : int;
  gaudit_violations : int;
  gaudit_live : int;
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
  let rng = Stream.fork_named stream ~name:"shard-churn-driver" in
  let minter_rng = Stream.fork_named stream ~name:"minter" in
  let sim_now = ref 0. in
  let clock = Clock.of_fn ~label:"shard-churn-sim" (fun () -> !sim_now) in
  let router =
    Router.create ?obs ?tap ~clock ~seed:(Int64.logxor seed 0x51A2DE5L) cfg.router
  in
  let minter = Minter.create ~rng:minter_rng () in
  let zipf = Zipf.create ~s:cfg.zipf_s ~n:cfg.clients () in
  let retry_policy = Retry.make_policy ~attempts:(cfg.max_attempts + 1) () in
  let n_slices = Router.slices router in
  let n_shards = cfg.router.Router.shards in
  let grace = cfg.router.Router.grace in
  (* Bumped whenever a slice provably loses (or will lose) its body to a
     fault we inject; a holder granted before the bump is *expected* to
     be fenced, anything else fenced is a routing/handoff bug. *)
  let disruption = Array.make n_slices 0 in
  let clients =
    Array.init cfg.clients (fun rank ->
        (* Hot (low-rank) clients re-arrive sooner and all land on the
           low slices, which the initial contiguous placement puts on
           shard 0 — Zipf skew becomes shard skew and forces the
           rebalancer's hand. *)
        let pressure = Zipf.relative_pressure zipf rank in
        let think_scale = max 0.05 (1. /. sqrt pressure) in
        {
          rank;
          key = rank * n_slices / cfg.clients;
          think_scale;
          phase = Idle;
          gen = 0;
          session = None;
          attempts = 0;
          prev_delay = 0;
          hold_end = 0.;
          lease_end = 0.;
          hint = None;
          d_gen = 0;
        })
  in
  let heap : ev Heap.t = Heap.create () in
  let minted = ref 0 in
  let client_crashes = ref 0 in
  let client_restarts = ref 0 in
  let shard_crashes = ref 0 in
  let shard_restarts = ref 0 in
  let shard_stalls = ref 0 in
  let abandoned = ref 0 in
  let stale_ops = ref 0 in
  let stale_rejected = ref 0 in
  let stale_ok = ref 0 in
  let retries = ref 0 in
  let redirects = ref 0 in
  let shard_down_busy = ref 0 in
  let in_handoff_busy = ref 0 in
  let expected_fenced = ref 0 in
  let unexpected_fenced = ref 0 in
  let releases_dropped = ref 0 in
  let lost_tickets = ref 0 in
  let peak_held = ref 0 in
  let n_events = ref 0 in
  let livelocked = ref false in
  let violation = ref None in
  let active_clients = ref cfg.clients in
  let stall_rr = ref 0 in
  let handoff_rr = ref 0 in
  (* (slice, ticket) -> client index, for resolving pump completions;
     tickets are minted per-slice service, so the slice is part of the
     key. *)
  let waiting = ref [] in
  let jitter ~around = around *. (0.5 +. Sample.float_unit rng) in
  let schedule ~at ev = Heap.push heap ~time:(max at !sim_now) ev in

  let think c = jitter ~around:(cfg.mean_think *. c.think_scale) in

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
    if !minted >= cfg.sessions_target then set_finished c
    else begin_session_attempt idx ~at:(!sim_now +. next_in)
  in

  (* Decorrelated jitter: each client's next delay depends on its own
     previous draw, so clients shed off the same overloaded shard do not
     re-arrive in lockstep the way a shared exponential ladder makes
     them. *)
  let backoff c =
    let d = Retry.jittered_delay retry_policy ~rng ~prev:c.prev_delay in
    c.prev_delay <- d;
    float_of_int d *. cfg.backoff_unit
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

  let enter_holding idx ~slice ~shard (grant : Lease.grant) =
    let c = clients.(idx) in
    c.gen <- c.gen + 1;
    c.attempts <- 0;
    c.hint <- Some shard;
    c.d_gen <- disruption.(slice);
    let fence = { Router.gf_slice = slice; gf_fence = grant.Lease.g_fence } in
    c.phase <- Holding fence;
    c.lease_end <- !sim_now +. cfg.router.Router.ttl;
    let hold = jitter ~around:cfg.mean_hold in
    c.hold_end <- !sim_now +. hold;
    if Sample.bernoulli rng cfg.crash_rate then
      schedule
        ~at:(!sim_now +. (Sample.float_unit rng *. hold))
        (E_client_crash { client = idx; gen = c.gen })
    else begin
      schedule ~at:c.hold_end (E_finish { client = idx; gen = c.gen });
      if !sim_now +. cfg.renew_every < c.hold_end then
        schedule ~at:(!sim_now +. cfg.renew_every) (E_renew { client = idx; gen = c.gen })
    end
  in

  (* A fence is expected after a fault we injected on the slice, or once
     the lease's own expiry has passed: a client retrying a busy release
     stops renewing, and its backoff can outlast the lease. *)
  let classify_fenced idx slice =
    let c = clients.(idx) in
    if disruption.(slice) > c.d_gen || !sim_now >= c.lease_end then incr expected_fenced
    else incr unexpected_fenced
  in

  (* Mark every slice currently owned by [shard] as disrupted: its body
     is about to be lost and every lease it issued is doomed. *)
  let disrupt_owned ~shard =
    for slice = 0 to n_slices - 1 do
      if Router.owner router ~slice = Some shard then
        disruption.(slice) <- disruption.(slice) + 1
    done
  in

  let crash_shard shard =
    if Shard.alive (Router.shard router ~id:shard) ~now:!sim_now then begin
      disrupt_owned ~shard;
      (* A slice in transit *from* this shard also dies with it. *)
      List.iter
        (fun (slice, from_, _to) ->
          if from_ = shard then disruption.(slice) <- disruption.(slice) + 1)
        (Router.in_transit router);
      Router.crash_shard router ~id:shard;
      incr shard_crashes;
      schedule ~at:(!sim_now +. cfg.shard_restart_delay) (E_shard_restart { shard })
    end
  in

  let handle_completions completions =
    List.iter
      (fun { Router.c_slice; c_shard; c_done } ->
        match c_done with
        | Service.Done { ticket; grant; _ } -> (
          let key = (c_slice, ticket) in
          match List.assoc_opt key !waiting with
          | None -> ()
          | Some idx ->
            waiting := List.remove_assoc key !waiting;
            let c = clients.(idx) in
            (match c.phase with
            | Waiting (s, t) when s = c_slice && t = ticket ->
              enter_holding idx ~slice:c_slice ~shard:c_shard grant
            | _ ->
              (* The client moved on (e.g. crashed while queued): hand
                 the name straight back. *)
              let fence =
                { Router.gf_slice = c_slice; gf_fence = grant.Lease.g_fence }
              in
              ignore (Router.release router ~fence)))
        | Service.Timed_out { ticket; _ } -> (
          let key = (c_slice, ticket) in
          match List.assoc_opt key !waiting with
          | None -> ()
          | Some idx ->
            waiting := List.remove_assoc key !waiting;
            let c = clients.(idx) in
            (match c.phase with
            | Waiting (s, t) when s = c_slice && t = ticket -> retry_or_abandon idx
            | _ -> ())))
      completions
  in

  let pump () =
    handle_completions (Router.pump router);
    (* Crash-during-handoff injection: a transit observed right after a
       pump has not completed yet (completion needs a strictly later
       pump), so a crash scheduled at the same instant lands mid-
       handoff by construction. *)
    match cfg.handoff with
    | None -> ()
    | Some h ->
      List.iter
        (fun (_slice, from_, to_) ->
          let u = Sample.float_unit rng in
          if u < h.h_crash_src then schedule ~at:!sim_now (E_shard_crash { shard = from_ })
          else if u < h.h_crash_src +. h.h_crash_dst then
            schedule ~at:!sim_now (E_shard_crash { shard = to_ }))
        (Router.in_transit router)
  in

  let crash_holding idx =
    let c = clients.(idx) in
    match c.phase with
    | Holding fence ->
      incr client_crashes;
      c.gen <- c.gen + 1;
      c.phase <- Crashed;
      schedule
        ~at:(!sim_now +. jitter ~around:cfg.client_restart_delay)
        (E_client_restart { client = idx; gen = c.gen });
      if Sample.bernoulli rng cfg.stale_wakeup then
        schedule
          ~at:
            (!sim_now +. (1.5 *. cfg.router.Router.ttl)
            +. (Sample.float_unit rng *. cfg.router.Router.ttl))
          (E_stale { fence })
    | _ -> ()
  in

  (* Seed arrivals. *)
  let arrivals = Arrival.times cfg.arrival ~n:cfg.clients in
  Array.iteri
    (fun idx at -> begin_session_attempt idx ~at:(float_of_int at *. 0.5))
    arrivals;
  (* Correlated crash bursts, reusing the crash-pattern generator over
     the shard space and over the client space; a burst-crashed client
     goes down only if it holds a lease when its event fires. *)
  let burst b ~n ev =
    List.iter
      (fun (time, who) -> schedule ~at:(float_of_int time) (ev who))
      (Crash_pattern.burst ~rng ~n ~failures:b.b_failures ~at:b.b_at ~width:b.b_width)
  in
  Option.iter (fun b -> burst b ~n:n_shards (fun shard -> E_shard_crash { shard })) cfg.shard_burst;
  Option.iter
    (fun b -> burst b ~n:cfg.clients (fun client -> E_client_burst { client }))
    cfg.client_burst;
  (match cfg.stall with
  | None -> ()
  | Some st -> schedule ~at:st.st_every (E_shard_stall ()));
  (match cfg.handoff with
  | None -> ()
  | Some h -> schedule ~at:h.h_every (E_handoff ()));
  (* Maintenance heartbeat: keeps orphan adoption and queue timeouts
     progressing even when every client is backing off. *)
  schedule ~at:(cfg.router.Router.ttl /. 2.) (E_tick ());

  let fresh c gen = c.gen = gen in
  (try
     let continue_ = ref true in
     while !continue_ do
       if !n_events > cfg.max_events then begin
         livelocked := true;
         continue_ := false
       end
       else
         match Heap.pop heap with
         | None -> continue_ := false
         | Some (time, ev) ->
           incr n_events;
           sim_now := max !sim_now time;
           pump ();
           (match ev with
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
               | Some session -> (
                 match Router.acquire ?hint:c.hint router ~session ~key:c.key with
                 | Router.Granted g ->
                   enter_holding idx ~slice:g.Router.sg_slice ~shard:g.Router.sg_shard
                     g.Router.sg_grant
                 | Router.Queued { slice; shard; ticket } ->
                   c.gen <- c.gen + 1;
                   c.hint <- Some shard;
                   c.phase <- Waiting (slice, ticket);
                   waiting := ((slice, ticket), idx) :: !waiting;
                   schedule
                     ~at:(!sim_now +. cfg.router.Router.request_timeout +. 0.001)
                     (E_poll { client = idx; gen = c.gen })
                 | Router.Shed _ -> retry_or_abandon idx
                 | Router.Busy (Router.Redirected { shard }) ->
                   (* Fresh routing information: follow it immediately
                      rather than burning an attempt. *)
                   incr redirects;
                   c.hint <- Some shard;
                   c.gen <- c.gen + 1;
                   schedule ~at:(!sim_now +. 0.001) (E_start { client = idx; gen = c.gen })
                 | Router.Busy (Router.Shard_down _) ->
                   incr shard_down_busy;
                   c.hint <- None;
                   retry_or_abandon idx
                 | Router.Busy (Router.In_handoff _) ->
                   incr in_handoff_busy;
                   c.hint <- None;
                   retry_or_abandon idx)
             end
           | E_poll { client = idx; gen } ->
             (* Normally the pump above resolved the ticket (granted or
                timed out) and bumped the generation, making this event
                stale.  If the client is *still* waiting, the ticket
                died with its slice body — resolve it here so nothing
                hangs on a crashed shard. *)
             let c = clients.(idx) in
             if fresh c gen then (
               match c.phase with
               | Waiting (slice, ticket) ->
                 waiting := List.remove_assoc (slice, ticket) !waiting;
                 incr lost_tickets;
                 retry_or_abandon idx
               | _ -> ())
           | E_renew { client = idx; gen } ->
             let c = clients.(idx) in
             if fresh c gen then (
               match c.phase with
               | Holding fence -> (
                 let reschedule ~after =
                   if !sim_now +. after < c.hold_end then
                     schedule ~at:(!sim_now +. after)
                       (E_renew { client = idx; gen = c.gen })
                 in
                 match Router.renew router ~fence with
                 | Ok expiry ->
                   c.lease_end <- expiry;
                   reschedule ~after:cfg.renew_every
                 | Error (`Busy b) ->
                   (* The slice is dark or moving: keep the lease warm
                      by retrying; if the body really died we will be
                      fenced (expectedly) after adoption. *)
                   (match b with
                   | Router.Shard_down _ -> incr shard_down_busy
                   | Router.In_handoff _ -> incr in_handoff_busy
                   | Router.Redirected { shard } ->
                     incr redirects;
                     c.hint <- Some shard);
                   reschedule ~after:cfg.backoff_unit
                 | Error `Fenced ->
                   classify_fenced idx fence.Router.gf_slice;
                   finish_session idx ~next_in:(think c))
               | _ -> ())
           | E_finish { client = idx; gen } ->
             let c = clients.(idx) in
             if fresh c gen then (
               match c.phase with
               | Holding fence -> (
                 match Router.release router ~fence with
                 | Ok _ -> finish_session idx ~next_in:(think c)
                 | Error `Fenced ->
                   classify_fenced idx fence.Router.gf_slice;
                   finish_session idx ~next_in:(think c)
                 | Error (`Busy b) ->
                   (match b with
                   | Router.Shard_down _ -> incr shard_down_busy
                   | Router.In_handoff _ -> incr in_handoff_busy
                   | Router.Redirected { shard } ->
                     incr redirects;
                     c.hint <- Some shard);
                   c.attempts <- c.attempts + 1;
                   if c.attempts > 3 then begin
                     (* Give up releasing into a dark slice: the lease
                        expires and is reclaimed on its own. *)
                     incr releases_dropped;
                     finish_session idx ~next_in:(think c)
                   end
                   else
                     schedule ~at:(!sim_now +. backoff c)
                       (E_finish { client = idx; gen = c.gen }))
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
               if !minted >= cfg.sessions_target then set_finished c
               else begin_session_attempt idx ~at:!sim_now
             end
           | E_stale { fence } ->
             (* The ghost of a crashed incarnation replays its fence,
                possibly against a slice that has since moved shards.
                Every operation must resolve to [`Fenced] or a
                structured [`Busy] — an [Ok] is a fencing hole. *)
             incr stale_ops;
             let ok = ref 0 in
             (match Router.renew router ~fence with Ok _ -> incr ok | Error _ -> ());
             (match Router.use router ~fence with Ok _ -> incr ok | Error _ -> ());
             (match Router.release router ~fence with Ok _ -> incr ok | Error _ -> ());
             if !ok = 0 then incr stale_rejected else stale_ok := !stale_ok + !ok
           | E_client_burst { client = idx } -> crash_holding idx
           | E_shard_crash { shard } -> crash_shard shard
           | E_shard_restart { shard } ->
             Router.restart_shard router ~id:shard;
             incr shard_restarts
           | E_shard_stall () -> (
             match cfg.stall with
             | None -> ()
             | Some st ->
               let shard = !stall_rr mod n_shards in
               incr stall_rr;
               if Shard.alive (Router.shard router ~id:shard) ~now:!sim_now then begin
                 if st.st_duration > grace then disrupt_owned ~shard;
                 Router.stall_shard router ~id:shard ~until:(!sim_now +. st.st_duration);
                 incr shard_stalls
               end;
               if !active_clients > 0 then
                 schedule ~at:(!sim_now +. st.st_every) (E_shard_stall ()))
           | E_handoff () -> (
             match cfg.handoff with
             | None -> ()
             | Some h ->
               (* Forced rebalancing: rotate through the slices looking
                  for one that can legally move to the next live shard.
                  Crash injection happens at the post-pump transit scan. *)
               let started = ref false in
               let tries = ref 0 in
               while (not !started) && !tries < n_slices do
                 let slice = !handoff_rr mod n_slices in
                 incr handoff_rr;
                 incr tries;
                 (match Router.owner router ~slice with
                 | None -> ()
                 | Some from_ ->
                   let dst = ref ((from_ + 1) mod n_shards) in
                   let dtries = ref 0 in
                   while
                     !dtries < n_shards - 1
                     && not (Shard.alive (Router.shard router ~id:!dst) ~now:!sim_now)
                   do
                     dst := (!dst + 1) mod n_shards;
                     if !dst = from_ then dst := (!dst + 1) mod n_shards;
                     incr dtries
                   done;
                   if
                     !dst <> from_
                     && Shard.alive (Router.shard router ~id:!dst) ~now:!sim_now
                   then
                     match Router.begin_handoff router ~slice ~to_:!dst with
                     | Ok () -> started := true
                     | Error `Unavailable -> ())
               done;
               if !active_clients > 0 then
                 schedule ~at:(!sim_now +. h.h_every) (E_handoff ()))
           | E_tick () ->
             if !active_clients > 0 then
               schedule
                 ~at:(!sim_now +. (cfg.router.Router.ttl /. 2.))
                 (E_tick ()));
           peak_held := max !peak_held (Router.total_held router)
     done
   with Audit.Violation { kind; message } -> violation := Some (kind, message));
  let bodies =
    List.concat_map
      (fun id ->
        List.map (fun (sl : Shard.slice) -> sl.Shard.sl_svc) (Shard.slices (Router.shard router ~id)))
      (List.init n_shards Fun.id)
  in
  let hist f = merge_hists (List.map f bodies) in
  {
    sessions = !minted;
    client_crashes = !client_crashes;
    client_restarts = !client_restarts;
    shard_crashes = !shard_crashes;
    shard_restarts = !shard_restarts;
    shard_stalls = !shard_stalls;
    abandoned = !abandoned;
    stale_ops = !stale_ops;
    stale_rejected = !stale_rejected;
    stale_ok = !stale_ok;
    retries = !retries;
    redirects = !redirects;
    shard_down_busy = !shard_down_busy;
    in_handoff_busy = !in_handoff_busy;
    expected_fenced = !expected_fenced;
    unexpected_fenced = !unexpected_fenced;
    releases_dropped = !releases_dropped;
    lost_tickets = !lost_tickets;
    events = !n_events;
    sim_time = !sim_now;
    peak_held = !peak_held;
    final_held = Router.total_held router;
    livelocked = !livelocked;
    violation = !violation;
    audit_near_misses = Router.audit_near_misses router;
    gaudit_violations = Router.gaudit_violations router;
    gaudit_live = Router.gaudit_live router;
    router = Router.stats router;
    service = List.fold_left (fun acc svc -> add_stats acc (Service.stats svc)) no_stats bodies;
    h_probes = hist Service.probes_hist;
    h_reclaim = hist Service.reclaim_lateness_hist;
    h_wait = hist Service.queue_wait_hist;
    h_lifetime = hist Service.lifetime_hist;
  }
