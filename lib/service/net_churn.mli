(** The closed-loop churn driver of the lease service: clients keyed
    by Zipf rank work sessions (acquire, renew while holding, release)
    against the sharded service, and every operation is a typed envelope
    through {!Transport}.  Clients send requests to the router node, the
    router resolves the slice through its directory and failure-detector
    view ({!Router.route}) and forwards to the owning shard with the
    directory epoch, and the shard executes against its resident slice
    body and replies directly to the client.  Over {!Transport.perfect}
    (no loss, zero delay) this is the in-process service; a one-shard,
    one-slice router makes it the churn driver of a single {!Service}.
    Messages are dropped, duplicated, reordered, delayed and partitioned
    per the configured {!Transport.faults}, so the protocol layers under
    test are:

    - {b at-most-once dedup} ({!Dedup}, one table per slice body,
      moving with the body on a clean handoff and dropped with it):
      duplicate deliveries replay the cached reply, reordered stragglers
      are discarded, a fresh execution is recorded before its reply is
      sent, and a shard holding no body of the slice refuses busy;
    - {b timeout/retry}: clients retransmit the same request id (same
      sequence number — the dedup key) after a timeout [rto] of 0.75, up
      to 3 times, back off between whole attempts with
      {!Renaming_sched.Retry.jittered_delay} (0.25 per tick), and
      abandon after [max_attempts];
    - {b failure detection}: shards heartbeat the router; the router
      suspects silence, orphans suspected shards' slices, re-owns them on
      recovery and adopts them after grace ({!Router.create}'s
      [suspicion], the router's one view of shard availability).
      Every shard crash — periodic, in a burst, or mid-handoff — is
      {e silent} ([Shard.crash]): the router only ever learns from
      missing heartbeats or a higher incarnation number.  A stalled
      shard stops heartbeating and serving, and comes back by re-own or
      finds its slices adopted.

    The driver asserts graceful degradation, not availability: nothing
    may hang, and nothing may be fenced {e unexpectedly}.  A fence is
    expected when the driver disrupted the slice after the grant
    (crashed its body, or stalled or partitioned its shard long enough
    to be suspected), or once the lease's own expiry has passed — a
    renew sent into a dark shard is lost, and the renew reply carries
    the exact expiry the service set.

    The run aborts on the first {!Audit.Violation} its tap raises (the
    refinement spec, when [Renaming_refine.Lease_adapter] is attached),
    and additionally audits {e at-most-once} end-to-end: a request id
    whose acquire executes effectfully twice without the slice provably
    losing its body in between is a [double_grants] — the exact failure the dedup window
    bound exists to prevent (docs/fault_model.md §8).  The audit forgets
    a grant once no copy of its request can still arrive (the retransmit
    horizon plus two delivery bounds), and ghosts reuse the network
    identities of long-gone ghosts, so a run's memory does not grow with
    its length.

    Config validation enforces the safety sizing rules rather than
    documenting them: [suspicion > hb_every],
    [grace >= ttl + hb_every + 2·max network delay],
    [dedup_window >= retransmit horizon + 2·max network delay], and —
    only where a message can be lost ([drop > 0] or a partition plan) —
    [1.5·mean_hold + 4·rto < ttl], so holds end inside the unrenewed
    lease lifetime.  Malformed fault plans are rejected too. *)

type partition_plan = {
  p_every : float;  (** mean time between partition injections *)
  p_duration : float;
  p_both : float;
      (** P[the partition also blocks router→shard, isolating the shard
          fully; otherwise only shard→router (heartbeats) is cut — the
          classic false-suspicion asymmetry] *)
}

type burst = { b_at : int; b_width : int; b_failures : int }
(** Correlated crashes: [b_failures] members of a population crash
    within [b_width] ticks of [b_at] ({!Renaming_workload.Crash_pattern.burst}).
    As [shard_burst] the population is the shard fleet; as
    [client_burst] it is the clients, and a client goes down only if it
    holds a lease when its crash fires.  Needs [b_at >= 0],
    [b_width >= 1] and [1 <= b_failures < population]. *)

type stall_plan = { st_every : float; st_duration : float }
(** Every [st_every], stall the next shard (round-robin) for
    [st_duration]; both must be [> 0].  A stall past the suspicion
    window orphans the shard's slices, and one past the grace as well
    gets them adopted under it. *)

type handoff_plan = {
  h_every : float;  (** [> 0] *)
  h_crash_src : float;  (** P[crash the source shard mid-transit] *)
  h_crash_dst : float;  (** P[crash the destination shard mid-transit] *)
}
(** Every [h_every], force a slice handoff to the next live shard, and
    crash its source or destination in the transit window with the given
    probabilities (each [>= 0], summing to at most 1). *)

type config = {
  clients : int;
  sessions_target : int;
  router : Router.config;
  faults : Transport.faults;
  hb_every : float;  (** heartbeat period *)
  suspicion : float;  (** heartbeat silence before suspicion *)
  dedup_window : float;  (** per-slice dedup entry idle eviction age *)
  zipf_s : float;
  mean_hold : float;
  mean_think : float;
  renew_every : float;
  crash_rate : float;  (** P[client crashes while holding] *)
  stale_wakeup : float;  (** P[a crashed client's ghost replays its fence] *)
  client_restart_delay : float;
  max_attempts : int;  (** whole-request attempts before abandoning *)
  partition : partition_plan option;
  shard_crash_every : float option;
      (** mean time between periodic silent shard crashes (a majority
          of the fleet is kept alive) *)
  shard_restart : float;
      (** mean restart delay of a crashed shard, jittered ×[0.5, 1.5] so
          restarts land both inside the suspicion window (exercising
          incarnation orphans) and outside it (exercising sweep
          suspicions) *)
  shard_burst : burst option;
  client_burst : burst option;
  stall : stall_plan option;
  handoff : handoff_plan option;
}

val make_config :
  ?clients:int ->
  ?sessions_target:int ->
  ?router:Router.config ->
  ?faults:Transport.faults ->
  ?hb_every:float ->
  ?suspicion:float ->
  ?dedup_window:float ->
  ?zipf_s:float ->
  ?mean_hold:float ->
  ?mean_think:float ->
  ?renew_every:float ->
  ?crash_rate:float ->
  ?stale_wakeup:float ->
  ?client_restart_delay:float ->
  ?max_attempts:int ->
  ?partition:partition_plan ->
  ?shard_crash_every:float ->
  ?shard_restart:float ->
  ?shard_burst:burst ->
  ?client_burst:burst ->
  ?stall:stall_plan ->
  ?handoff:handoff_plan ->
  unit ->
  config
(** Raises a named [Invalid_argument] on any violated sizing rule or
    malformed plan (see module doc).  Default router config: 4 shards ×
    8 slices, [ttl = 15], [grace = 24], auto rebalancing off (ownership
    moves only through failure detection and the handoff plan). *)

type summary = {
  mutable sessions : int;
  mutable client_crashes : int;
  mutable client_restarts : int;
  mutable shard_crashes : int;
  mutable shard_restarts : int;
  mutable partitions : int;
  mutable shard_stalls : int;
  mutable abandoned : int;
  mutable retries : int;  (** whole-request attempts retried after a backoff *)
  mutable resends : int;  (** same-rid retransmits (timeout, poll and renew) *)
  mutable timeouts : int;  (** rid retransmit budgets exhausted *)
  mutable lost_tickets : int;
  mutable redirects : int;
  mutable shard_down_busy : int;
  mutable in_handoff_busy : int;
  mutable sheds : int;
  mutable expected_fenced : int;  (** fenced after a disruption of the slice, or after expiry *)
  mutable unexpected_fenced : int;  (** fenced with no cause to blame — must be 0 *)
  mutable releases_dropped : int;
  mutable late_grants_released : int;
      (** grants nobody was waiting for (abandoned or crashed requester),
          handed straight back *)
  mutable double_grants : int;
      (** at-most-once violations: a rid executed effectfully twice with
          no body loss in between — must be 0 *)
  mutable stale_ops : int;  (** ghost operations sent, three per ghost (renew, use, release) *)
  mutable stale_rejected : int;
      (** ghost operations answered fenced or busy; an operation routed to a
          dead shard gets no answer and is in neither count *)
  mutable stale_ok : int;  (** ghost operations that succeeded — must be 0 *)
  mutable events : int;
  sim_time : float;
  mutable peak_held : int;
  final_held : int;
  livelocked : bool;  (** hit the guard of 2·10^8 timers and deliveries *)
  violation : (string * string) option;
      (** the kind and message of the {!Audit.Violation} that ended the
          run: a tap's, such as the refinement spec's ["refine:*"] kinds *)
  net : Transport.stats;
  dedup : Dedup.stats;
      (** {!Router.dedup_stats}: every slice body's table counts into it,
          the tables dropped with their bodies included *)
  detector : Router.detector_stats;
  router : Router.stats;
      (** the busy counts include the router's refusals to forward
          ({!Router.note_busy}) *)
  service : Service.stats;
  h_probes : Renaming_obs.Hist.t;  (** probes per grant *)
  h_reclaim : Renaming_obs.Hist.t;  (** reclaim lateness, centiticks *)
  h_wait : Renaming_obs.Hist.t;  (** queue wait, centiticks *)
  h_lifetime : Renaming_obs.Hist.t;  (** grant to release, centiticks *)
}
(** The counts are mutable only so that {!run} can keep them in place
    while it runs.

    [service] and the four histograms are the router's meter set
    ({!Router.meters}), which every slice body of the run counts into:
    bodies lost to a shard crash or dropped as stale count too, so
    [service.grants] is every grant the run made. *)

val run :
  ?obs:Renaming_obs.Obs.t ->
  ?tap:(Router.tap_event -> unit) ->
  config ->
  seed:int64 ->
  summary
(** Deterministic for a given [(config, seed)].  [?tap] is passed
    through to {!Router.create} (service events + slice absorbs, for
    the refinement spec).  Observation only, up to the first
    {!Audit.Violation} it raises — retransmits, dedup replays and
    fenced ghosts never reach the tap as effects and refine to
    stutters for free. *)
