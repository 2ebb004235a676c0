(** Discrete-event chaos driver for the sharded renaming service.

    A population of clients keyed by Zipf rank works sessions against a
    {!Router}: acquire (with cached shard hints), renew while holding,
    release — under client crashes (singly or in correlated bursts) with
    ghost (stale-fence) wakeups, {e shard} crashes and stalls, and slice
    handoffs, some of which are deliberately crashed mid-transit.  Over
    a one-shard, one-slice router this is the closed-loop churn driver
    of a single {!Service}.

    Shed and timed-out clients retry after a decorrelated-jitter backoff
    ({!Renaming_faults.Retry.jittered_delay}) and abandon the session
    after [max_attempts].

    The driver asserts graceful degradation, not availability: every
    operation against a dark or moving slice must resolve to a
    structured outcome ([`Fenced] or [`Busy]) and be retried or shed —
    nothing may hang ([lost_tickets] resolves tickets that died with a
    slice body), and nothing may be fenced {e unexpectedly}.  A fence is
    expected only when the driver itself disrupted the slice (crashed
    its owner, or stalled it past the grace) after the lease was
    granted, or when the lease's own expiry has passed (a client
    retrying a busy release stops renewing, and its backoff can outlast
    the ttl); [unexpected_fenced > 0] means a clean handoff broke a live
    lease.  Global name uniqueness is asserted continuously by the
    router's cross-shard audit mirror; a violation aborts the run and is
    reported in [violation].

    Fully deterministic: all randomness derives from [seed]. *)

type burst = { b_at : int; b_width : int; b_failures : int }
(** Correlated crashes: [b_failures] members of a population crash
    within [b_width] ticks of [b_at] (reuses
    {!Renaming_workload.Crash_pattern.burst}).  As [shard_burst] the
    population is the shard fleet; as [client_burst] it is the clients,
    and a client goes down only if it holds a lease when its crash
    fires. *)

type stall_plan = { st_every : float; st_duration : float }
(** Every [st_every], stall the next shard (round-robin) for
    [st_duration].  A stall longer than the router grace gets the
    shard's slices reassigned under it. *)

type handoff_plan = {
  h_every : float;
  h_crash_src : float;  (** P[crash the source shard mid-transit] *)
  h_crash_dst : float;  (** P[crash the destination shard mid-transit] *)
}
(** Every [h_every], force a slice handoff to the next live shard; each
    observed transit is crashed at the source or destination with the
    given probabilities, in the window before the completing pump. *)

type config = {
  clients : int;
  sessions_target : int;
  router : Router.config;
  zipf_s : float;
  mean_hold : float;
  mean_think : float;
  renew_every : float;
  crash_rate : float;  (** P[client crashes while holding] *)
  stale_wakeup : float;  (** P[crashed client's ghost replays its fence] *)
  client_restart_delay : float;
  shard_restart_delay : float;
  max_attempts : int;
  backoff_unit : float;
  arrival : Renaming_workload.Arrival.pattern;
  shard_burst : burst option;
  client_burst : burst option;
  stall : stall_plan option;
  handoff : handoff_plan option;
  max_events : int;  (** livelock guard *)
}

val make_config :
  ?clients:int ->
  ?sessions_target:int ->
  ?router:Router.config ->
  ?zipf_s:float ->
  ?mean_hold:float ->
  ?mean_think:float ->
  ?renew_every:float ->
  ?crash_rate:float ->
  ?stale_wakeup:float ->
  ?client_restart_delay:float ->
  ?shard_restart_delay:float ->
  ?max_attempts:int ->
  ?backoff_unit:float ->
  ?arrival:Renaming_workload.Arrival.pattern ->
  ?shard_burst:burst ->
  ?client_burst:burst ->
  ?stall:stall_plan ->
  ?handoff:handoff_plan ->
  ?max_events:int ->
  unit ->
  config

type summary = {
  sessions : int;
  client_crashes : int;
  client_restarts : int;
  shard_crashes : int;
  shard_restarts : int;
  shard_stalls : int;
  abandoned : int;  (** sessions that gave up after [max_attempts] *)
  stale_ops : int;
  stale_rejected : int;  (** ghost replays with no [Ok] outcome *)
  stale_ok : int;  (** fencing holes — must be 0 *)
  retries : int;
  redirects : int;  (** stale shard hints corrected by the directory *)
  shard_down_busy : int;
  in_handoff_busy : int;
  expected_fenced : int;  (** fenced after an injected fault on that slice, or after expiry *)
  unexpected_fenced : int;  (** fenced with no injected cause — must be 0 *)
  releases_dropped : int;  (** releases into a dark slice, left to expiry *)
  lost_tickets : int;  (** queue tickets that died with a slice body *)
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
  h_probes : Renaming_obs.Hist.t;  (** probes per grant *)
  h_reclaim : Renaming_obs.Hist.t;  (** reclaim lateness, centiticks *)
  h_wait : Renaming_obs.Hist.t;  (** queue wait, centiticks *)
  h_lifetime : Renaming_obs.Hist.t;  (** grant to release, centiticks *)
}
(** [service] and the four histograms are summed over the slice bodies
    resident at the end of the run.  Bodies lost to a shard crash, or
    dropped as stale after losing their slice, are not counted; with
    one shard and no shard faults that is the whole run. *)

val run :
  ?obs:Renaming_obs.Obs.t ->
  ?tap:(Router.tap_event -> unit) ->
  config ->
  seed:int64 ->
  summary
(** [?tap] is passed through to {!Router.create} (audit events + slice
    absorbs, for the refinement harness).  Observation only. *)
