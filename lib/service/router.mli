(** Client-facing router over the sharded lease service.

    The namespace is partitioned into [slices] contiguous slices, each
    an independent {!Service} stack ({!Shard.slice}) resident on one of
    [shards] failure domains.  The router owns the {e slice-ownership
    directory} — the single source of truth mapping every slice to its
    serving shard and the slice's current {e epoch} — and resolves every
    client operation through it, so a stalled shard holding a stale body
    is simply unreachable.

    {b Epoch-fenced slice handoff.}  Rebalancing moves a whole slice
    between shards through an explicit in-transit state:
    [Owned (from, e)] → [In_transit (from, to, e)] → [Owned (to, e+1)].
    The epoch bump is coupled to the transfer commit, and every
    resolution checks the body's recorded epoch against the directory,
    so a crash at any point of the handoff can only lose availability:
    - source crashes mid-transit: the body (and its leases) die with it;
      the slice is orphaned and adopted fresh after [grace] — it can
      never be served twice;
    - destination crashes mid-transit: the source keeps the body under a
      bumped epoch ([e+1]) and service resumes — no name is stranded;
    - a clean handoff moves the body {e intact}: live leases survive,
      clients are redirected, nobody is fenced.

    {b Degraded-mode routing.}  Operations against a crashed, stalled or
    in-transit slice resolve to structured {!busy} outcomes — never
    hang, never unsafe.  A dead shard's slices are {e absorbed} by the
    least-loaded survivor only after [grace ≥ ttl] has elapsed since
    orphaning, by which point every lease the lost body issued has
    provably expired; in between the slice is dark (partial
    availability).  Stale clients of the old body are fenced by the
    fresh lease table.

    {b Observation.}  The router checks no safety property itself.  Its
    tap ({!create}'s [?tap]) hears every slice service's events, tagged
    with the slice, and every absorb — the stream on which the
    refinement spec ([Renaming_refine.Lease_adapter]) judges that no
    global name is ever backed by two live leases and that no absorb
    takes a lease before it expired. *)

type config = {
  shards : int;
  slices : int;  (** total slices ([>= shards]) *)
  slice_capacity : int;  (** lease capacity per slice *)
  epsilon : float;
  ttl : float;
  queue_limit : int;
  request_timeout : float;
  high_water : float;
  grace : float;  (** orphan age before absorption; must be [>= ttl] *)
  hot_util : float;  (** shard utilization that triggers rebalancing *)
  cold_util : float;  (** max utilization of a rebalance destination *)
  auto_rebalance : bool;
}

val make_config :
  ?shards:int ->
  ?slices:int ->
  ?slice_capacity:int ->
  ?epsilon:float ->
  ?ttl:float ->
  ?queue_limit:int ->
  ?request_timeout:float ->
  ?high_water:float ->
  ?grace:float ->
  ?hot_util:float ->
  ?cold_util:float ->
  ?auto_rebalance:bool ->
  unit ->
  config
(** Defaults: 4 shards × 8 slices × 16 capacity, [grace = 1.5·ttl].
    One shard over one slice is a single {!Service} behind the router:
    a crash or a suspected stall leaves the slice dark until the shard
    is back, and then it re-owns the slice or adopts it afresh.  Raises if
    [shards < 1], [slices < shards] or [grace < ttl] — absorbing
    before expiry would regrant live names. *)

type t

(** External observation of the safety-relevant surface: every
    per-slice {!Audit.event} plus every slice absorb, each with the
    clock's reading.  [Lease_adapter] taps this to feed the
    centralized spec; clean handoffs move slice bodies intact and are
    deliberately invisible here (they refine to stutters).  Without a
    tap no event is built. *)
type tap_event =
  | Tap_audit of { slice : int; now : float; ev : Audit.event }
  | Tap_absorb of { slice : int; now : float }

val create :
  ?obs:Renaming_obs.Obs.t ->
  ?tap:(tap_event -> unit) ->
  ?suspicion:float ->
  clock:Renaming_clock.Clock.t ->
  seed:int64 ->
  config ->
  t
(** Slices are placed in contiguous ranges ([slice · shards / slices]),
    so a Zipf-hot key range concentrates on one shard.  All randomness
    derives from [seed] via named streams — runs are replayable.
    [suspicion] is the failure detector's timeout (see Failure
    detection below); every shard starts unsuspected, with a heartbeat
    as of the clock's reading now.  Every slice body the router makes,
    the initial ones and every adopted one, starts with an empty dedup
    table and no ticket waits ({!Shard.slice}); its service counts into
    one meter set ({!meters}), built here from [obs] as the router's own
    counters are, and its table into one {!dedup_stats}.  Raises if
    [suspicion <= 0]. *)

(** {2 Routing} *)

type busy =
  | Shard_down of { shard : int }  (** owner crashed/stalled/orphaned — retry later *)
  | In_handoff of { slice : int }  (** ownership in transit — retry later *)
  | Redirected of { shard : int }  (** stale shard hint — retry at [shard] now *)

type sgrant = { sg_slice : int; sg_shard : int; sg_epoch : int; sg_grant : Lease.grant }

type gfence = Reply.gfence = { gf_slice : int; gf_fence : Lease.fence }
(** The client's capability: the slice plus the in-slice lease fence.
    Validity is decided by the lease fence at whichever shard currently
    owns the slice — a clean handoff keeps it alive, an absorb kills it. *)

val fence_of_grant : sgrant -> gfence

type outcome =
  | Granted of sgrant
  | Queued of { slice : int; shard : int; ticket : int }
  | Shed of Admission.shed_reason
  | Busy of busy

val route : t -> slice:int -> int
(** Resolve [slice] to the shard to forward to from the directory and
    the failure detector's availability view {e only} — no shard-body
    inspection, so this is what a real router node can decide before
    forwarding.  The forward carries {!slice_epoch}, and the shard
    itself must check it against its resident body at delivery time (a
    mismatch means the directory moved on while the request was in
    flight, and the request must be refused, not served).  A negative
    answer is {!route_in_handoff} or {!route_down} (the owner is down,
    suspected or orphaned).  An [int], so a forward allocates nothing;
    does not update routing stats. *)

val route_in_handoff : int
val route_down : int

val acquire : ?hint:int -> t -> session:int -> key:int -> outcome
(** [key] is the placement key ([slice = key mod slices]).  When [hint]
    (the client's cached owner for the slice) no longer matches the
    directory, the outcome is [Busy (Redirected ...)] with the current
    owner and no side effect.

    Every in-process operation ([acquire], {!renew}, {!use},
    {!release}) is served the way a forward is: the slice is routed on
    the directory and the detector's view, as {!route} routes it, and
    the owner answers only through {!Shard.serving} — alive, with its
    body at the directory's epoch.  An in-transit slice answers
    [In_handoff]; an orphaned slice, an unavailable owner, and an
    available owner that is crashed, stalled or holds no body at that
    epoch all answer [Shard_down]. *)

val note_busy : t -> int -> unit
(** [note_busy t r] counts a busy reply that a message-path router sends
    instead of forwarding, for {!route}'s answer [r]: {!route_down} in
    [shard_downs], {!route_in_handoff} in [in_handoff_busy], and a shard
    (the owner a request with a stale hint is redirected to) in
    [redirects] — the counters the in-process operations bump for their
    [Busy] outcomes.  Allocates nothing. *)

val renew : t -> fence:gfence -> (float, [ `Fenced | `Busy of busy ]) result
val use : t -> fence:gfence -> (unit, [ `Fenced | `Busy of busy ]) result
val release : t -> fence:gfence -> (float, [ `Fenced | `Busy of busy ]) result

type completion = { c_slice : int; c_shard : int; c_done : Service.completion }

val pump : t -> completion list
(** Router maintenance, then the per-slice service pumps: orphan the
    slices of newly suspected shards, progress/abort in-transit handoffs
    (orphaning one whose source is crashed or stalled past [grace]), heal
    elapsed stalls and drop fenced bodies, absorb orphans past [grace]
    into the least-loaded survivor, trigger auto rebalancing, then
    reclaim/expire/grant on every body {!Shard.serving} answers for.
    Completions come back in slice order.

    Wake invariant: the router keeps the earliest instant at which any
    of these phases could act, and before it [pump] returns [[]] at a
    guard that reads three floats and allocates nothing.  A full pump
    recomputes that instant from what it left behind:
    - the {!Service.next_due} of every body the slice loop pumps;
    - the end of every stall;
    - the oldest heartbeat of an unsuspected shard, compared as the
      suspicion sweep compares it ([now -. last > suspicion]);
    - the oldest grace clock that can still run out, compared as
      adoption compares it ([now -. since >= grace]);
    - any slice in transit, which keeps every pump full until the
      handoff resolves.
    In between, whatever can give a phase work lowers it at once: every
    operation on a slice body, including one made directly on
    {!Shard.find_slice}'s body rather than through the router (the
    bodies share the router's wake cell); every directory write,
    handoff start and shard crash, restart or stall; a heartbeat from a
    shard the router could not route to; and, with [auto_rebalance],
    any change in a body's held count.  So a pump the guard skips is
    exactly one that would have changed nothing.  {!stats} counts the
    calls ([pumps]) and the ones that ran the phases ([full_pumps]). *)

(** {2 Failure detection}

    The router never reads a shard's status to decide availability: its
    one view is a timeout-based failure detector, as a real router node
    has.  A shard is {e available} only while its latest heartbeat is
    younger than {!create}'s [suspicion], and routing ({!route}, every
    in-process operation, adopter choice) runs on that view.  Without
    [suspicion] no shard is ever suspected: every shard is available,
    and only a restart heartbeat (below) or the handoff protocol's own
    check of a transit's endpoints can orphan a slice, so a crashed
    owner's slice stays dark ([Shard_down]) until its restart is
    announced.  On suspicion the shard's slices are orphaned from the
    instant routing stopped forwarding ([last heartbeat + suspicion]);
    if heartbeats resume before adoption, the orphans are handed back at
    the same epoch with every lease intact (a false suspicion costs
    availability, never safety).  A heartbeat with a higher incarnation
    number (the shard's {!Shard.incarnation}, which every restart bumps)
    announces an amnesiac restart and orphans the previous
    incarnation's slices immediately.  Callers must size
    [grace >= ttl + heartbeat period + 2 * max network delay] so every
    lease the suspected body could still have renewed has expired by
    adoption (docs/fault_model.md §8). *)

type detector_stats = {
  mutable suspicions : int;
  mutable recoveries : int;  (** suspicions cleared by a late heartbeat *)
  mutable reowns : int;  (** orphaned slices handed back on recovery *)
  mutable incarnation_orphans : int;  (** slices orphaned by a restart heartbeat *)
}

val heartbeat : t -> shard:int -> incarnation:int -> unit
(** Record a heartbeat arrival. *)

val detector_stats : t -> detector_stats

(** {2 Handoff} *)

val begin_handoff : t -> slice:int -> to_:int -> (unit, [ `Unavailable ]) result
(** Start moving [slice] to shard [to_]; completes (or aborts) on a
    strictly later {!pump}, leaving a window for crash injection.
    [`Unavailable] if the slice is not currently owned by a live shard,
    the destination is down, or [to_] already owns it. *)

(** {2 Introspection} *)

type stats = {
  mutable handoffs_started : int;
  mutable handoffs_completed : int;
  mutable handoffs_aborted : int;  (** destination died; source kept the slice (epoch bumped) *)
  mutable handoffs_orphaned : int;  (** source died mid-transit; slice went dark *)
  mutable adoptions : int;  (** orphaned slices absorbed after grace *)
  mutable redirects : int;
  mutable shard_downs : int;
  mutable in_handoff_busy : int;
      (** These three count every busy reply: in-process [Busy] outcomes
          and the message path's refusals ({!note_busy}). *)
  mutable fenced_ops : int;
      (** fenced in-process {!renew}/{!use}/{!release} calls; a forward
          that the shard fences is counted by the slice's service *)
  mutable pumps : int;  (** {!pump} calls *)
  mutable full_pumps : int;  (** {!pump} calls that got past the wake guard *)
}

val stats : t -> stats

val meters : t -> Service.meters
(** The meter set {!create} made and handed to every slice body it
    builds, the initial ones and every adopted one: the service counts
    and histograms of the whole run, dropped bodies included.  With
    [?obs] its histograms and counters are the registry's. *)

val dedup_stats : t -> Dedup.stats
(** The record every body's dedup table counts into, dropped bodies included. *)

val slices : t -> int
val slice_width : t -> int
val slice_of_key : t -> key:int -> int
val owner : t -> slice:int -> int option
val slice_epoch : t -> slice:int -> int

val shard : t -> id:int -> Shard.t
val total_held : t -> int
