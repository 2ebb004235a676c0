(* A run is a [state] record and top-level handlers over it: one
   for each node ([on_client], [on_router], [on_shard]), one for queue
   completions ([handle_completion]) and one for timers ([handle_event]).

   Client state is struct-of-arrays, one column per field, indexed by
   client.  [phase] is an immediate tag; the request id it waits on sits
   in [rid] (or [renew_seq] for a renew in flight) and the lease it holds
   in [fence].  [session], [hint] and [renew_seq] use -1 for none, and
   times live unboxed in [Float.Array]s, so a transition allocates
   nothing.

   A timer is an int in an [int Heap.t].  Its value packs the [kind] in
   the low [kind_bits] bits and an argument above them: a client, a
   shard, or for [E_stale] the key of its fence in [stale_fences].  The
   heap's [aux] column holds the client's [gen] when the timer was set,
   so a timer from before a transition is dropped when it fires; for
   [E_renew_rto] it holds the renew's request id instead.  Delays are
   added to the clock inside the heap ([Heap.push_after]), so setting a
   timer boxes no float.

   The heap breaks time ties by push order, a transport drain delivers
   only what was in flight when it began, and every random draw keeps its
   place, so a run is a pure function of its config and seed. *)

module Clock = Renaming_clock.Clock
module Stream = Renaming_rng.Stream
module Sample = Renaming_rng.Sample
module Retry = Renaming_sched.Retry
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

(* Safe-eviction bound: no copy of a rid can arrive later than this
   after its first send.  The client's last retransmit of it comes within
   the retransmit horizon, dominated by queue polling, and a copy crosses
   at most two legs (client to router, router to shard), each within the
   network's delivery bound. *)
let rid_lifetime router (faults : Transport.faults) =
  let maxd = faults.Transport.delay_max +. faults.Transport.reorder_extra in
  let horizon = rto *. float_of_int (max_polls router + rto_retries + 8) in
  horizon +. (2. *. maxd)

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
  if dedup_window < rid_lifetime router faults then
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
  { clients; sessions_target; router; faults; hb_every; suspicion; dedup_window; zipf_s;
    mean_hold; mean_think; renew_every; crash_rate; stale_wakeup; client_restart_delay;
    max_attempts; partition; shard_crash_every; shard_restart; shard_burst; client_burst;
    stall; handoff }

type summary = {
  mutable sessions : int;
  mutable client_crashes : int;
  mutable client_restarts : int;
  mutable shard_crashes : int;
  mutable shard_restarts : int;
  mutable partitions : int;
  mutable shard_stalls : int;
  mutable abandoned : int;
  mutable retries : int;
  mutable resends : int;
  mutable timeouts : int;
  mutable lost_tickets : int;
  mutable redirects : int;
  mutable shard_down_busy : int;
  mutable in_handoff_busy : int;
  mutable sheds : int;
  mutable expected_fenced : int;
  mutable unexpected_fenced : int;
  mutable releases_dropped : int;
  mutable late_grants_released : int;
  mutable double_grants : int;
  mutable stale_ops : int;
  mutable stale_rejected : int;
  mutable stale_ok : int;
  mutable events : int;
  sim_time : float;
  mutable peak_held : int;
  final_held : int;
  livelocked : bool;
  violation : (string * string) option;
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

(* {2 Wire types} *)

type op =
  | Op_acquire of { session : int; key : int; hint : int (* -1 for none *) }
  | Op_renew of Router.gfence
  | Op_use of Router.gfence
  | Op_release of Router.gfence

type req = { client : int; seq : int; op : op }

type body =
  | B_granted of { shard : int; fence : Router.gfence }
  | B_queued
  | B_shed
  | B_busy of [ `Down | `Handoff ]
  | B_redirect of { shard : int }
  | B_timeout
  | B_fenced
  | B_ok
  | B_renewed of float  (* the expiry the service set *)

(* A request travels client -> router as [M_req] and router -> shard as
   [M_fwd], sharing one [req]; a reply goes shard (or router) -> client,
   which is its destination address. *)
type msg =
  | M_req of req
  | M_fwd of { epoch : int; req : req }
  | M_rep of { seq : int; body : body }
  | M_hb of { shard : int; incarnation : int }

(* {2 Events} *)

type kind =
  | E_start | E_rto | E_renew | E_renew_rto | E_finish | E_client_crash | E_client_restart
  | E_stale | E_hb | E_partition | E_shard_crash | E_burst_crash | E_client_burst
  | E_shard_restart | E_stall | E_handoff | E_tick

(* Every kind, at its code. *)
let kinds =
  [| E_start; E_rto; E_renew; E_renew_rto; E_finish; E_client_crash; E_client_restart;
     E_stale; E_hb; E_partition; E_shard_crash; E_burst_crash; E_client_burst;
     E_shard_restart; E_stall; E_handoff; E_tick |]

let kind_bits = 5

let rec kind_index kind i = if kinds.(i) == kind then i else kind_index kind (i + 1)
let encode kind ~arg = kind_index kind 0 lor (arg lsl kind_bits)

(* {2 Run state} *)

type phase = Idle | Acquiring | Queued_wait | Holding | Releasing | Crashed | Finished

module Ints = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash x = x land max_int
end)

type state = {
  cfg : config;
  rng : Renaming_rng.Xoshiro.t;
  now : float ref;  (* the sim clock; boxed, so every read shares one box *)
  router : Router.t;
  net : msg Transport.t;
  minter : Minter.t;
  n_slices : int;
  n_shards : int;
  ttl : float;
  max_polls : int;
  rid_lifetime : float;
  disruption : int array;
      (* bumped whenever a slice provably loses (or will lose) its body;
         grants accepted before the bump are expected to be fenced *)
  dedup : body Dedup.t array;
      (* one table per slice: part of the slice state, so a clean handoff
         carries it along (same index) and a crash loses it with the body
         (see [silent_crash]); every table counts into [sum.dedup] *)
  rids : (int * float) Ints.t;  (* rid key -> disruption gen and time at its grant *)
  rid_order : int Queue.t;  (* the keys of [rids], oldest grant first *)
  incarnation : int array;
  shard_addr : Transport.addr array;
  events : int Heap.t;
  stale_fences : Router.gfence Ints.t;  (* the payload of each pending [E_stale] *)
  mutable stale_next : int;
  mutable waiting : ((int * int) * (int * int)) list;
      (* (slice, ticket) -> (client, rid seq): the rid a queue completion answers *)
  (* Client columns, indexed by client. *)
  addr : Transport.addr array;
  key : int array;
  slice : int array;
  think_scale : Float.Array.t;
  phase : phase array;
  gen : int array;  (* bumped at every transition; stale timers are dropped *)
  session : int array;  (* -1 between sessions *)
  seq : int array;  (* the last request id sent: strictly increasing, the dedup key *)
  rid : int array;  (* the request id of an [Acquiring], [Queued_wait] or [Releasing] phase *)
  fence : Router.gfence array;  (* the lease of a [Holding] or [Releasing] phase *)
  attempts : int array;  (* whole-request attempts this session *)
  rto_count : int array;  (* retransmits of the rid in flight *)
  prev_delay : int array;  (* decorrelated-jitter walk state *)
  renew_seq : int array;  (* the renew in flight, -1 for none ... *)
  renew_tries : int array;  (* ... and its resends *)
  hold_end : Float.Array.t;
  lease_end : Float.Array.t;  (* expiry of the held lease, as granted or renewed *)
  hint : int array;  (* the owner shard last seen, -1 for none *)
  acq_d_gen : int array;  (* slice disruption gen when the rid was first sent *)
  d_gen : int array;  (* ... when the grant was accepted *)
  sum : summary;  (* counted in place; [run] fills in the rest at the end *)
  mutable granted : bool;
      (* set by every grant a shard makes; the loop re-reads the held
         count only after an iteration that set it (see [run]'s loop) *)
  mutable active_clients : int;
  mutable partition_rr : int;
  mutable crash_rr : int;
  mutable stall_rr : int;
  mutable handoff_rr : int;
  mutable ghost_next : int;
  retired_ghosts : (float * int) Queue.t;  (* ghost identities and when each may be reused *)
}

let no_fence =
  { Router.gf_slice = -1; gf_fence = { Lease.f_name = -1; f_session = -1; f_epoch = -1 } }

(* {2 Timers and sends} *)

let schedule_in st ~delay kind ~arg ~aux =
  Heap.push_after st.events ~now:!(st.now) ~delay ~aux (encode kind ~arg)

let schedule_at st ~at kind ~arg ~aux = Heap.push st.events ~time:at ~aux (encode kind ~arg)

let client_event st kind idx ~delay = schedule_in st ~delay kind ~arg:idx ~aux:st.gen.(idx)

let[@inline] jitter st ~around = around *. (0.5 +. Sample.float_unit st.rng)
let think st idx = jitter st ~around:(st.cfg.mean_think *. Float.Array.get st.think_scale idx)
let send st ~src ~dst m = Transport.send st.net ~now:!(st.now) ~src ~dst m

let request st idx ~seq op =
  send st ~src:st.addr.(idx) ~dst:Transport.Router (M_req { client = idx; seq; op })

let send_req st idx op =
  st.seq.(idx) <- st.seq.(idx) + 1;
  request st idx ~seq:st.seq.(idx) op;
  st.seq.(idx)

let resend_req st idx ~seq op =
  st.sum.resends <- st.sum.resends + 1;
  request st idx ~seq op

let acquire_op st idx =
  Op_acquire { session = st.session.(idx); key = st.key.(idx); hint = st.hint.(idx) }

(* {2 The at-most-once audit} *)

(* Rid keys pack the client above 32 bits of sequence number. *)
let rid_key ~client ~seq =
  if seq >= 1 lsl 32 then invalid_arg "Net_churn: request id beyond 2^32";
  (client lsl 32) lor seq

let note_grant st ~client ~seq ~slice =
  st.granted <- true;
  let key = rid_key ~client ~seq and gen = st.disruption.(slice) in
  (match Ints.find st.rids key with
  | g, _ -> if g = gen then st.sum.double_grants <- st.sum.double_grants + 1
  | exception Not_found -> ());
  Ints.replace st.rids key (gen, !(st.now));
  Queue.push key st.rid_order

(* A grant is forgotten once it is older than [rid_lifetime]: its rid
   was first sent before it was granted, the client retransmits a rid
   only within the retransmit horizon of that first send, and every copy
   crosses at most two legs (client to router, router to shard), each
   within the delivery bound.  So no copy of the rid is still in flight
   that could execute it a second time.  Dedup eviction rests on the
   same bound, but this table must not share the dedup window: it exists
   to catch a dedup that forgets too early.  A rid granted again (after
   its slice lost its body) is forgotten with its latest grant. *)
let rec expire_rids st =
  match Queue.peek_opt st.rid_order with
  | None -> ()
  | Some key -> (
    match Ints.find st.rids key with
    | exception Not_found ->
      ignore (Queue.pop st.rid_order);
      expire_rids st
    | _, at ->
      if !(st.now) -. at > st.rid_lifetime then begin
        Ints.remove st.rids key;
        ignore (Queue.pop st.rid_order);
        expire_rids st
      end)

(* {2 Client transitions} *)

let set_finished st idx =
  if st.phase.(idx) <> Finished then begin
    st.gen.(idx) <- st.gen.(idx) + 1;
    st.phase.(idx) <- Finished;
    st.active_clients <- st.active_clients - 1
  end

let enter_idle st idx =
  st.gen.(idx) <- st.gen.(idx) + 1;
  st.phase.(idx) <- Idle

let finish_session st idx ~next_in =
  st.session.(idx) <- -1;
  st.attempts.(idx) <- 0;
  st.prev_delay.(idx) <- 0;
  st.renew_seq.(idx) <- -1;
  if st.sum.sessions >= st.cfg.sessions_target then set_finished st idx
  else begin
    enter_idle st idx;
    client_event st E_start idx ~delay:next_in
  end

let backoff st idx =
  let d = Retry.jittered_delay ~rng:st.rng ~prev:st.prev_delay.(idx) in
  st.prev_delay.(idx) <- d;
  float_of_int d *. backoff_unit

let retry_or_abandon st idx =
  st.attempts.(idx) <- st.attempts.(idx) + 1;
  if st.attempts.(idx) > st.cfg.max_attempts then begin
    st.sum.abandoned <- st.sum.abandoned + 1;
    finish_session st idx ~next_in:(think st idx)
  end
  else begin
    st.sum.retries <- st.sum.retries + 1;
    enter_idle st idx;
    client_event st E_start idx ~delay:(backoff st idx)
  end

(* A fence is expected after a disruption of the slice since the
   grant, or once the lease's own expiry has passed: a renew that meets
   a dark shard is lost, and a client retrying a release stops
   renewing. *)
let classify_fenced st idx slice =
  if st.disruption.(slice) > st.d_gen.(idx) || !(st.now) >= Float.Array.get st.lease_end idx
  then st.sum.expected_fenced <- st.sum.expected_fenced + 1
  else st.sum.unexpected_fenced <- st.sum.unexpected_fenced + 1

let send_renew st idx =
  if st.phase.(idx) = Holding && st.renew_seq.(idx) < 0 then begin
    let seq = send_req st idx (Op_renew st.fence.(idx)) in
    st.renew_seq.(idx) <- seq;
    st.renew_tries.(idx) <- 0;
    schedule_in st ~delay:rto E_renew_rto ~arg:idx ~aux:seq
  end

let enter_holding st idx ~shard fence =
  st.gen.(idx) <- st.gen.(idx) + 1;
  st.attempts.(idx) <- 0;
  st.rto_count.(idx) <- 0;
  st.hint.(idx) <- shard;
  st.d_gen.(idx) <- st.acq_d_gen.(idx);
  st.renew_seq.(idx) <- -1;
  st.phase.(idx) <- Holding;
  st.fence.(idx) <- fence;
  let now = !(st.now) in
  Float.Array.set st.lease_end idx (now +. st.ttl);
  let hold = jitter st ~around:st.cfg.mean_hold in
  Float.Array.set st.hold_end idx (now +. hold);
  if Sample.bernoulli st.rng st.cfg.crash_rate then
    client_event st E_client_crash idx ~delay:(Sample.float_unit st.rng *. hold)
  else begin
    client_event st E_finish idx ~delay:hold;
    client_event st E_renew idx ~delay:st.cfg.renew_every
  end;
  (* Renew immediately: the grant may have spent several reply-loss
     poll rounds in flight, so refresh the lease's expiry before the
     hold clock starts mattering. *)
  send_renew st idx

let crash_holding st idx =
  if st.phase.(idx) = Holding then begin
    st.sum.client_crashes <- st.sum.client_crashes + 1;
    st.gen.(idx) <- st.gen.(idx) + 1;
    st.phase.(idx) <- Crashed;
    st.renew_seq.(idx) <- -1;
    client_event st E_client_restart idx ~delay:(jitter st ~around:st.cfg.client_restart_delay);
    if Sample.bernoulli st.rng st.cfg.stale_wakeup then begin
      let slot = st.stale_next in
      st.stale_next <- slot + 1;
      Ints.replace st.stale_fences slot st.fence.(idx);
      schedule_at st
        ~at:(!(st.now) +. (1.5 *. st.ttl) +. (Sample.float_unit st.rng *. st.ttl))
        E_stale ~arg:slot ~aux:0
    end
  end

(* {2 Fault injection} *)

let disrupt_owned st ~shard =
  for slice = 0 to st.n_slices - 1 do
    if Router.owner st.router ~slice = Some shard then
      st.disruption.(slice) <- st.disruption.(slice) + 1
  done

let alive st shard = Shard.alive (Router.shard st.router ~id:shard) ~now:!(st.now)

(* Every shard crash is silent: the router learns of it only from
   missing heartbeats or the restart's incarnation bump.  The slices
   lost are the shard's resident bodies at the directory's epoch —
   owned, in transit from it, or orphaned under a false suspicion —
   and with each body go its dedup table and its pending tickets (an
   adopted body restarts tickets at 0). *)
let silent_crash st shard =
  let sh = Router.shard st.router ~id:shard in
  if Shard.alive sh ~now:!(st.now) then begin
    let lost =
      List.filter_map
        (fun (sl : Shard.slice) ->
          let slice = sl.Shard.sl_id in
          if sl.Shard.sl_epoch = Router.slice_epoch st.router ~slice then Some slice else None)
        (Shard.slices sh)
    in
    List.iter
      (fun slice ->
        st.disruption.(slice) <- st.disruption.(slice) + 1;
        st.dedup.(slice) <- Dedup.create ~window:st.cfg.dedup_window st.sum.dedup)
      lost;
    st.waiting <- List.filter (fun ((s, _), _) -> not (List.mem s lost)) st.waiting;
    Shard.crash sh ~now:!(st.now);
    st.sum.shard_crashes <- st.sum.shard_crashes + 1;
    schedule_in st ~delay:(jitter st ~around:st.cfg.shard_restart) E_shard_restart ~arg:shard
      ~aux:0
  end

(* {2 Router and shard nodes} *)

let reply_from st src (req : req) body =
  let c = req.client in
  let dst = if c < st.cfg.clients then st.addr.(c) else Transport.Client c in
  send st ~src ~dst (M_rep { seq = req.seq; body })

let req_slice st (req : req) =
  match req.op with
  | Op_acquire { key; _ } -> Router.slice_of_key st.router ~key
  | Op_renew gf | Op_use gf | Op_release gf -> gf.Router.gf_slice

(* The router answers instead of forwarding, counting the busy reply as
   the in-process operations count theirs. *)
let refuse st req ~route body =
  Router.note_busy st.router route;
  reply_from st Transport.Router req body

let on_router st = function
  | M_hb { shard; incarnation } -> Router.heartbeat st.router ~shard ~incarnation
  | M_req req ->
    let slice = req_slice st req in
    let shard = Router.route st.router ~slice in
    let hint = match req.op with Op_acquire { hint; _ } -> hint | _ -> -1 in
    if shard = Router.route_in_handoff then refuse st req ~route:shard (B_busy `Handoff)
    else if shard = Router.route_down then refuse st req ~route:shard (B_busy `Down)
    else if hint >= 0 && hint <> shard then refuse st req ~route:shard (B_redirect { shard })
    else
      send st ~src:Transport.Router ~dst:st.shard_addr.(shard)
        (M_fwd { epoch = Router.slice_epoch st.router ~slice; req })
  | M_fwd _ | M_rep _ -> ()

let execute st (sl : Shard.slice) ~slice ~shard (req : req) =
  let svc = sl.Shard.sl_svc in
  match req.op with
  | Op_acquire { session; _ } -> (
    match Service.acquire svc ~session with
    | Service.Granted grant ->
      note_grant st ~client:req.client ~seq:req.seq ~slice;
      B_granted { shard; fence = { Router.gf_slice = slice; gf_fence = grant.Lease.g_fence } }
    | Service.Queued ticket ->
      st.waiting <- ((slice, ticket), (req.client, req.seq)) :: st.waiting;
      B_queued
    | Service.Shed _ -> B_shed)
  | Op_renew gf -> (
    match Service.renew svc ~fence:gf.Router.gf_fence with
    | Ok expiry -> B_renewed expiry
    | Error `Fenced -> B_fenced)
  | Op_use gf -> (
    match Service.use svc ~fence:gf.Router.gf_fence with
    | Ok () -> B_ok
    | Error `Fenced -> B_fenced)
  | Op_release gf -> (
    match Service.release svc ~fence:gf.Router.gf_fence with
    | Ok _ -> B_ok
    | Error `Fenced -> B_fenced)

let on_shard st s = function
  | M_fwd { epoch; req } ->
    let sh = Router.shard st.router ~id:s in
    if Shard.alive sh ~now:!(st.now) then begin
      let slice = req_slice st req in
      let d = st.dedup.(slice) and src = st.shard_addr.(s) in
      match Dedup.admit d ~client:req.client ~seq:req.seq ~now:!(st.now) with
      | Dedup.Replay b -> reply_from st src req b
      | Dedup.Stale -> ()
      | Dedup.Fresh -> (
        match Shard.serving sh ~slice ~epoch ~now:!(st.now) with
        | Some sl ->
          let b = execute st sl ~slice ~shard:s req in
          Dedup.record d ~client:req.client ~seq:req.seq ~now:!(st.now) b;
          reply_from st src req b
        | None ->
          (* The directory moved on while the forward was in flight:
             refuse without recording — the retransmit will be routed
             afresh and must be allowed to execute. *)
          reply_from st src req (B_busy `Down))
    end
  | M_req _ | M_rep _ | M_hb _ -> ()

(* {2 Client reply handlers} *)

let count_busy st = function
  | `Down -> st.sum.shard_down_busy <- st.sum.shard_down_busy + 1
  | `Handoff -> st.sum.in_handoff_busy <- st.sum.in_handoff_busy + 1

let acquire_reply st idx body =
  match body with
  | B_granted { shard; fence } -> enter_holding st idx ~shard fence
  | B_queued ->
    st.gen.(idx) <- st.gen.(idx) + 1;
    st.rto_count.(idx) <- 0;
    st.phase.(idx) <- Queued_wait;
    client_event st E_rto idx ~delay:rto
  | B_redirect { shard } ->
    st.sum.redirects <- st.sum.redirects + 1;
    st.hint.(idx) <- shard;
    resend_req st idx ~seq:st.rid.(idx) (acquire_op st idx)
  | B_shed ->
    st.sum.sheds <- st.sum.sheds + 1;
    retry_or_abandon st idx
  | B_busy b ->
    count_busy st b;
    if b = `Down then st.hint.(idx) <- -1;
    retry_or_abandon st idx
  | B_timeout -> retry_or_abandon st idx
  | B_fenced | B_ok | B_renewed _ -> ()

let queued_reply st idx body =
  match body with
  | B_granted { shard; fence } -> enter_holding st idx ~shard fence
  | B_timeout -> retry_or_abandon st idx
  | B_busy b -> count_busy st b
  | B_queued | B_shed | B_redirect _ | B_fenced | B_ok | B_renewed _ -> ()

let renew_reply st idx body =
  match body with
  | B_renewed expiry ->
    st.renew_seq.(idx) <- -1;
    Float.Array.set st.lease_end idx expiry
  | B_fenced ->
    st.renew_seq.(idx) <- -1;
    classify_fenced st idx st.fence.(idx).Router.gf_slice;
    finish_session st idx ~next_in:(think st idx)
  | B_busy b -> count_busy st b
  | B_granted _ | B_queued | B_shed | B_redirect _ | B_timeout | B_ok -> ()

let release_reply st idx body =
  match body with
  | B_ok -> finish_session st idx ~next_in:(think st idx)
  | B_fenced ->
    classify_fenced st idx st.fence.(idx).Router.gf_slice;
    finish_session st idx ~next_in:(think st idx)
  | B_busy b -> count_busy st b
  | B_granted _ | B_queued | B_shed | B_redirect _ | B_timeout | B_renewed _ -> ()

let ghost_reply st body =
  match body with
  | B_ok | B_renewed _ -> st.sum.stale_ok <- st.sum.stale_ok + 1
  | B_fenced | B_busy _ | B_timeout -> st.sum.stale_rejected <- st.sum.stale_rejected + 1
  | B_granted _ | B_queued | B_shed | B_redirect _ -> ()

let on_client st idx ~seq body =
  if idx >= st.cfg.clients then ghost_reply st body
  else begin
    let phase = st.phase.(idx) in
    match phase with
    | Acquiring when seq = st.rid.(idx) -> acquire_reply st idx body
    | Queued_wait when seq = st.rid.(idx) -> queued_reply st idx body
    | Holding when seq = st.renew_seq.(idx) -> renew_reply st idx body
    | Releasing when seq = st.rid.(idx) -> release_reply st idx body
    | _ -> (
      match body with
      | B_granted { fence; _ } ->
        (* A grant nobody is waiting for.  A duplicate delivery of the
           lease we already hold is ignored; anything else (abandoned
           rid, crashed requester) is handed straight back. *)
        if not ((phase = Holding || phase = Releasing) && st.fence.(idx) = fence) then begin
          st.sum.late_grants_released <- st.sum.late_grants_released + 1;
          ignore (send_req st idx (Op_release fence))
        end
      | _ -> ())
  end

let handle_msg st _src dst m =
  st.sum.events <- st.sum.events + 1;
  match (dst : Transport.addr) with
  | Transport.Router -> on_router st m
  | Transport.Shard s -> on_shard st s m
  | Transport.Client i -> (
    match m with
    | M_rep { seq; body } -> on_client st i ~seq body
    | M_req _ | M_fwd _ | M_hb _ -> ())

(* Queue completions surface at the owning shard: record the final
   outcome over the provisional B_queued (so later retransmits replay
   it) and push a reply to the rid's client.  Only the body at the
   directory's epoch is pumped, and [waiting] holds an entry for every
   ticket it issued: [silent_crash] drops a slice's entries only with
   the body that issued them. *)
let handle_completion st { Router.c_slice; c_shard; c_done } =
  let ticket, body =
    match c_done with
    | Service.Done { ticket; grant; _ } ->
      st.granted <- true;
      ( ticket,
        B_granted
          {
            shard = c_shard;
            fence = { Router.gf_slice = c_slice; gf_fence = grant.Lease.g_fence };
          } )
    | Service.Timed_out { ticket; _ } -> (ticket, B_timeout)
  in
  let key = (c_slice, ticket) in
  match List.assoc_opt key st.waiting with
  | Some (client, seq) ->
    st.waiting <- List.remove_assoc key st.waiting;
    (match c_done with
    | Service.Done _ -> note_grant st ~client ~seq ~slice:c_slice
    | Service.Timed_out _ -> ());
    Dedup.record st.dedup.(c_slice) ~client ~seq ~now:!(st.now) body;
    send st ~src:st.shard_addr.(c_shard) ~dst:st.addr.(client) (M_rep { seq; body })
  | None ->
    Printf.ksprintf failwith "Net_churn: slice %d completed ticket %d, which no request waits on"
      c_slice ticket

(* Almost every pump returns [] at the router's wake guard; that case
   costs nothing here either. *)
let rec handle_completions st = function
  | [] -> ()
  | c :: rest ->
    handle_completion st c;
    handle_completions st rest

let pump st = handle_completions st (Router.pump st.router)

(* {2 Timer handlers} *)

(* A client timer is live iff no transition happened since it was set. *)
let on_client_timer st kind idx =
  match kind with
  | E_start ->
    if st.session.(idx) < 0 && st.sum.sessions < st.cfg.sessions_target then begin
      st.session.(idx) <- Minter.mint st.minter;
      st.sum.sessions <- st.sum.sessions + 1
    end;
    if st.session.(idx) < 0 then set_finished st idx
    else begin
      st.gen.(idx) <- st.gen.(idx) + 1;
      st.rto_count.(idx) <- 0;
      st.acq_d_gen.(idx) <- st.disruption.(st.slice.(idx));
      st.rid.(idx) <- send_req st idx (acquire_op st idx);
      st.phase.(idx) <- Acquiring;
      client_event st E_rto idx ~delay:rto
    end
  | E_rto -> (
    let phase = st.phase.(idx) in
    let limit =
      match phase with Acquiring -> rto_retries | Queued_wait -> st.max_polls | _ -> 3
    in
    if phase = Acquiring || phase = Queued_wait || phase = Releasing then begin
      st.rto_count.(idx) <- st.rto_count.(idx) + 1;
      if st.rto_count.(idx) <= limit then begin
        resend_req st idx ~seq:st.rid.(idx)
          (if phase = Releasing then Op_release st.fence.(idx) else acquire_op st idx);
        client_event st E_rto idx ~delay:rto
      end
      else
        match phase with
        | Acquiring ->
          st.sum.timeouts <- st.sum.timeouts + 1;
          retry_or_abandon st idx
        | Queued_wait ->
          st.sum.lost_tickets <- st.sum.lost_tickets + 1;
          retry_or_abandon st idx
        | _ ->
          (* Give up releasing into a lossy/dark path: the lease
             expires and is reclaimed on its own. *)
          st.sum.releases_dropped <- st.sum.releases_dropped + 1;
          finish_session st idx ~next_in:(think st idx)
    end)
  | E_renew ->
    if st.phase.(idx) = Holding then begin
      send_renew st idx;
      if !(st.now) +. st.cfg.renew_every < Float.Array.get st.hold_end idx then
        client_event st E_renew idx ~delay:st.cfg.renew_every
    end
  | E_finish ->
    if st.phase.(idx) = Holding then begin
      st.gen.(idx) <- st.gen.(idx) + 1;
      st.rto_count.(idx) <- 0;
      st.renew_seq.(idx) <- -1;
      st.rid.(idx) <- send_req st idx (Op_release st.fence.(idx));
      st.phase.(idx) <- Releasing;
      client_event st E_rto idx ~delay:rto
    end
  | E_client_crash -> crash_holding st idx
  | E_client_restart ->
    st.sum.client_restarts <- st.sum.client_restarts + 1;
    st.session.(idx) <- -1;
    st.attempts.(idx) <- 0;
    st.prev_delay.(idx) <- 0;
    if st.sum.sessions >= st.cfg.sessions_target then set_finished st idx
    else begin
      enter_idle st idx;
      client_event st E_start idx ~delay:0.
    end
  | E_renew_rto | E_stale | E_hb | E_partition | E_shard_crash | E_burst_crash
  | E_client_burst | E_shard_restart | E_stall | E_handoff | E_tick ->
    ()

(* While any client is active, a periodic timer re-arms itself. *)
let rearm st ~every kind ~arg =
  if st.active_clients > 0 then schedule_in st ~delay:every kind ~arg ~aux:0

(* A ghost takes a network identity no live client or recent ghost
   holds.  Identities are reused, oldest first, so that long runs keep a
   bounded set of them: one is retired once no copy of its three
   requests can still arrive (two legs, each within the delivery bound)
   and a dedup sweep has evicted every entry they made, which happens
   within the dedup window plus one sweep period ([ttl / 2], rounded up
   here to [ttl]) of the last arrival.  Sweeps run only while a client
   is active.  A reused
   identity is then indistinguishable from a fresh one: its dedup
   entries, and its messages in flight, are gone. *)
let ghost_identity st =
  let now = !(st.now) in
  let g =
    match Queue.peek_opt st.retired_ghosts with
    | Some (free_at, g) when free_at < now && st.active_clients > 0 ->
      ignore (Queue.pop st.retired_ghosts);
      g
    | _ ->
      let g = st.ghost_next in
      st.ghost_next <- g + 1;
      g
  in
  let free_at = now +. (2. *. Transport.max_delay st.net) +. st.cfg.dedup_window +. st.ttl in
  Queue.push (free_at, g) st.retired_ghosts;
  g

let handle_event st ev ~aux =
  let arg = ev lsr kind_bits in
  match kinds.(ev land ((1 lsl kind_bits) - 1)) with
  | (E_start | E_rto | E_renew | E_finish | E_client_crash | E_client_restart) as kind ->
    if st.gen.(arg) = aux then on_client_timer st kind arg
  | E_renew_rto ->
    (* [aux] is the renew's request id.  It names the renew uniquely, and
       a client leaves [Holding] or re-enters it only by clearing
       [renew_seq], so a match also proves no transition happened. *)
    if st.phase.(arg) = Holding && st.renew_seq.(arg) = aux then
      if st.renew_tries.(arg) >= 4 then st.renew_seq.(arg) <- -1
      else begin
        st.renew_tries.(arg) <- st.renew_tries.(arg) + 1;
        resend_req st arg ~seq:aux (Op_renew st.fence.(arg));
        schedule_in st ~delay:rto E_renew_rto ~arg ~aux
      end
  | E_stale ->
    (* The ghost of a crashed incarnation replays its fence from a
       fresh network identity; every operation must come back fenced,
       busy, or not at all — a B_ok is a fencing hole. *)
    let fence = Ints.find st.stale_fences arg in
    Ints.remove st.stale_fences arg;
    let g = ghost_identity st in
    st.sum.stale_ops <- st.sum.stale_ops + 3;
    let src = Transport.Client g in
    List.iteri
      (fun i op ->
        send st ~src ~dst:Transport.Router (M_req { client = g; seq = i + 1; op }))
      [ Op_renew fence; Op_use fence; Op_release fence ]
  | E_hb ->
    let shard = arg in
    if alive st shard then
      send st ~src:st.shard_addr.(shard) ~dst:Transport.Router
        (M_hb { shard; incarnation = st.incarnation.(shard) });
    rearm st ~every:st.cfg.hb_every E_hb ~arg:shard
  | E_partition ->
    Option.iter
      (fun p ->
        let shard = st.partition_rr mod st.n_shards in
        st.partition_rr <- st.partition_rr + 1;
        let src = st.shard_addr.(shard) in
        if
          alive st shard
          && not (Transport.partitioned st.net ~now:!(st.now) ~src ~dst:Transport.Router)
        then begin
          st.sum.partitions <- st.sum.partitions + 1;
          let until = !(st.now) +. jitter st ~around:p.p_duration in
          Transport.partition st.net ~src ~dst:Transport.Router ~until;
          if Sample.bernoulli st.rng p.p_both then
            Transport.partition st.net ~src:Transport.Router ~dst:src ~until;
          (* A partition long enough to trigger suspicion can cost the
             shard its slices (adoption) or its holders their renews;
             either way the fences issued before it are doomed. *)
          if until -. !(st.now) >= st.cfg.suspicion then disrupt_owned st ~shard
        end;
        rearm st ~every:p.p_every E_partition ~arg:0)
      st.cfg.partition
  | E_shard_crash ->
    Option.iter
      (fun every ->
        let n_alive = ref 0 in
        for s = 0 to st.n_shards - 1 do
          if alive st s then incr n_alive
        done;
        if !n_alive * 2 > st.n_shards then begin
          let shard = st.crash_rr mod st.n_shards in
          st.crash_rr <- st.crash_rr + 1;
          silent_crash st shard
        end;
        rearm st ~every E_shard_crash ~arg:0)
      st.cfg.shard_crash_every
  | E_burst_crash -> silent_crash st arg
  | E_client_burst -> crash_holding st arg
  | E_shard_restart ->
    let shard = arg in
    Shard.restart (Router.shard st.router ~id:shard);
    st.incarnation.(shard) <- st.incarnation.(shard) + 1;
    st.sum.shard_restarts <- st.sum.shard_restarts + 1;
    (* A rebooted shard announces itself immediately rather than
       waiting for its next heartbeat slot — this is the race the
       incarnation number exists for: if the announcement lands before
       the suspicion sweep, the router learns of the amnesiac restart
       only through the bump. *)
    send st ~src:st.shard_addr.(shard) ~dst:Transport.Router
      (M_hb { shard; incarnation = st.incarnation.(shard) })
  | E_stall ->
    Option.iter
      (fun sp ->
        let shard = st.stall_rr mod st.n_shards in
        st.stall_rr <- st.stall_rr + 1;
        if alive st shard then begin
          (* A stall past the grace may see the slices adopted under the
             shard.  A shorter one only loses the renews sent into it,
             and a lease that expires meanwhile is fenced by expiry. *)
          if sp.st_duration > st.cfg.router.Router.grace then disrupt_owned st ~shard;
          Shard.stall (Router.shard st.router ~id:shard) ~now:!(st.now)
            ~until:(!(st.now) +. sp.st_duration);
          st.sum.shard_stalls <- st.sum.shard_stalls + 1
        end;
        rearm st ~every:sp.st_every E_stall ~arg:0)
      st.cfg.stall
  | E_handoff ->
    Option.iter
      (fun h ->
        (* Forced rebalancing: rotate through the slices for one that can
           move to the next live shard.  The transit completes on a
           strictly later pump, so a crash injected now lands mid-handoff. *)
        let started = ref false and tries = ref 0 in
        while (not !started) && !tries < st.n_slices do
          let slice = st.handoff_rr mod st.n_slices in
          st.handoff_rr <- st.handoff_rr + 1;
          incr tries;
          match Router.owner st.router ~slice with
          | None -> ()
          | Some from_ -> (
            let dst = ref ((from_ + 1) mod st.n_shards) in
            while !dst <> from_ && not (alive st !dst) do
              dst := (!dst + 1) mod st.n_shards
            done;
            let to_ = !dst in
            match Router.begin_handoff st.router ~slice ~to_ with
            | Error `Unavailable -> ()
            | Ok () ->
              started := true;
              let u = Sample.float_unit st.rng in
              if u < h.h_crash_src then silent_crash st from_
              else if u < h.h_crash_src +. h.h_crash_dst then silent_crash st to_)
        done;
        rearm st ~every:h.h_every E_handoff ~arg:0)
      st.cfg.handoff
  | E_tick ->
    Array.iter (fun d -> ignore (Dedup.sweep d ~now:!(st.now))) st.dedup;
    expire_rids st;
    rearm st ~every:(st.ttl /. 2.) E_tick ~arg:0

let run ?obs ?tap (cfg : config) ~seed =
  let stream = Stream.create seed in
  let rng = Stream.fork_named stream ~name:"net-churn-driver" in
  let net_rng = Stream.fork_named stream ~name:"net-transport" in
  let minter_rng = Stream.fork_named stream ~name:"minter" in
  let now = ref 0. in
  let clock = Clock.of_fn ~label:"net-churn-sim" (fun () -> !now) in
  let router =
    Router.create ?obs ?tap ~suspicion:cfg.suspicion ~clock
      ~seed:(Int64.logxor seed 0x7E7_D0_5EL) cfg.router
  in
  let zipf = Zipf.create ~s:cfg.zipf_s ~n:cfg.clients () in
  let n_slices = Router.slices router and n_shards = cfg.router.Router.shards in
  let n = cfg.clients in
  let net = Transport.create ~faults:cfg.faults ~rng:net_rng () in
  let meters = Router.meters router in
  (* The counts start at zero; the fields only the end of the run can
     fill in hold placeholders until then. *)
  let sum =
    {
      sessions = 0;
      client_crashes = 0;
      client_restarts = 0;
      shard_crashes = 0;
      shard_restarts = 0;
      partitions = 0;
      shard_stalls = 0;
      abandoned = 0;
      retries = 0;
      resends = 0;
      timeouts = 0;
      lost_tickets = 0;
      redirects = 0;
      shard_down_busy = 0;
      in_handoff_busy = 0;
      sheds = 0;
      expected_fenced = 0;
      unexpected_fenced = 0;
      releases_dropped = 0;
      late_grants_released = 0;
      double_grants = 0;
      stale_ops = 0;
      stale_rejected = 0;
      stale_ok = 0;
      events = 0;
      sim_time = 0.;
      peak_held = 0;
      final_held = 0;
      livelocked = false;
      violation = None;
      net = Transport.stats net;
      dedup = { Dedup.fresh = 0; replays = 0; stale = 0; evictions = 0 };
      detector = Router.detector_stats router;
      router = Router.stats router;
      service = Service.stats meters;
      h_probes = Service.probes_hist meters;
      h_reclaim = Service.reclaim_lateness_hist meters;
      h_wait = Service.queue_wait_hist meters;
      h_lifetime = Service.lifetime_hist meters;
    }
  in
  let st =
    {
      cfg;
      rng;
      now;
      router;
      net;
      minter = Minter.create ~rng:minter_rng ();
      n_slices;
      n_shards;
      ttl = cfg.router.Router.ttl;
      max_polls = max_polls cfg.router;
      rid_lifetime = rid_lifetime cfg.router cfg.faults;
      disruption = Array.make n_slices 0;
      dedup = Array.init n_slices (fun _ -> Dedup.create ~window:cfg.dedup_window sum.dedup);
      rids = Ints.create 1024;
      rid_order = Queue.create ();
      incarnation = Array.make n_shards 0;
      shard_addr = Array.init n_shards (fun s -> Transport.Shard s);
      events = Heap.create ();
      stale_fences = Ints.create 16;
      stale_next = 0;
      waiting = [];
      addr = Array.init n (fun i -> Transport.Client i);
      key = Array.init n (fun rank -> rank * n_slices / n);
      slice = Array.init n (fun rank -> Router.slice_of_key router ~key:(rank * n_slices / n));
      think_scale =
        Float.Array.init n (fun rank -> max 0.05 (1. /. sqrt (Zipf.relative_pressure zipf rank)));
      phase = Array.make n Idle;
      gen = Array.make n 0;
      session = Array.make n (-1);
      seq = Array.make n 0;
      rid = Array.make n 0;
      fence = Array.make n no_fence;
      attempts = Array.make n 0;
      rto_count = Array.make n 0;
      prev_delay = Array.make n 0;
      renew_seq = Array.make n (-1);
      renew_tries = Array.make n 0;
      hold_end = Float.Array.make n 0.;
      lease_end = Float.Array.make n 0.;
      hint = Array.make n (-1);
      acq_d_gen = Array.make n 0;
      d_gen = Array.make n 0;
      sum;
      granted = false;
      active_clients = n;
      partition_rr = 0;
      crash_rr = 0;
      stall_rr = 0;
      handoff_rr = 0;
      ghost_next = n;
      retired_ghosts = Queue.create ();
    }
  in
  (* Seeding. *)
  let arrivals = Arrival.times (Arrival.Staggered { gap = 1 }) ~n in
  Array.iteri
    (fun idx at ->
      enter_idle st idx;
      schedule_at st ~at:(float_of_int at *. 0.5) E_start ~arg:idx ~aux:st.gen.(idx))
    arrivals;
  for shard = 0 to n_shards - 1 do
    schedule_at st
      ~at:(float_of_int shard *. cfg.hb_every /. float_of_int n_shards)
      E_hb ~arg:shard ~aux:0
  done;
  Option.iter (fun p -> schedule_at st ~at:p.p_every E_partition ~arg:0 ~aux:0) cfg.partition;
  Option.iter (fun every -> schedule_at st ~at:every E_shard_crash ~arg:0 ~aux:0)
    cfg.shard_crash_every;
  (* Correlated crash bursts over the shard fleet and over the clients;
     a burst-crashed client goes down only if it holds a lease when its
     event fires. *)
  let burst b ~n kind =
    List.iter
      (fun (time, who) -> schedule_at st ~at:(float_of_int time) kind ~arg:who ~aux:0)
      (Crash_pattern.burst ~rng ~n ~failures:b.b_failures ~at:b.b_at ~width:b.b_width)
  in
  Option.iter (fun b -> burst b ~n:n_shards E_burst_crash) cfg.shard_burst;
  Option.iter (fun b -> burst b ~n E_client_burst) cfg.client_burst;
  Option.iter (fun sp -> schedule_at st ~at:sp.st_every E_stall ~arg:0 ~aux:0) cfg.stall;
  Option.iter (fun h -> schedule_at st ~at:h.h_every E_handoff ~arg:0 ~aux:0) cfg.handoff;
  schedule_at st ~at:(st.ttl /. 2.) E_tick ~arg:0 ~aux:0;
  let on_msg = handle_msg st in
  let livelocked = ref false and violation = ref None in
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
       if st.sum.events > max_events then begin
         livelocked := true;
         continue_ := false
       end
       else if Heap.is_empty st.events && Transport.in_flight st.net = 0 then
         continue_ := false
       else begin
         (* A delivery goes before a timer due at the same instant.  The
            tests are bools: the times themselves would be boxed. *)
         if Transport.delivers_first st.net st.events then begin
           if Transport.delivery_after st.net ~now:!now then now := Transport.next_delivery st.net;
           pump st;
           Transport.deliver st.net ~now:!now on_msg
         end
         else begin
           if Heap.top_after st.events ~now:!now then now := Heap.top_time st.events;
           let aux = Heap.top_aux st.events in
           let ev = Heap.take st.events in
           st.sum.events <- st.sum.events + 1;
           pump st;
           handle_event st ev ~aux
         end;
         if st.granted then begin
           st.granted <- false;
           let held = Router.total_held router in
           if held > st.sum.peak_held then st.sum.peak_held <- held
         end
       end
     done
   with Audit.Violation { kind; message } -> violation := Some (kind, message));
  {
    sum with
    sim_time = !now;
    final_held = Router.total_held router;
    livelocked = !livelocked;
    violation = !violation;
  }
