(** The lease-based renaming service façade.

    One object ties the pieces together: the {!Lease} table (names,
    TTLs, fencing epochs), the {!Admission} queue (bounded waiting,
    shedding, request deadlines), an optional tap that hears every
    {!Audit.event}, and telemetry (plain counters always,
    {!Renaming_obs.Obs} registration when a capability is supplied).
    The service checks no safety property itself: a caller that wants
    one judged attaches the refinement spec to the tap
    ([Renaming_refine.Lease_adapter]).

    Time comes exclusively from the injected {!Renaming_clock.Clock} —
    the service never reads the wall clock — so simulated runs are
    deterministic and tests drive expiry by hand.

    Call {!pump} periodically (the churn driver does so at every event):
    it reclaims expired leases, expires overdue queued requests, and
    grants to the head of the queue while capacity allows. *)

type config = { lease : Lease.config; admission : Admission.config }

val make_config : ?lease:Lease.config -> ?admission:Admission.config -> unit -> config

type t

(** A wake cell that several bodies share with their owner.  Its fields
    are floats only, so updating it allocates nothing. *)
type wake = {
  mutable at : float;
      (** Every operation that moves a sharing body's {!next_due} earlier
          lowers [at] to it, so [at] stays at or below the [next_due] of
          every sharing body until the owner raises it again. *)
  mutable on_held : float;
      (** What a change in a sharing body's {!held} lowers [at] to:
          [neg_infinity] when the owner's pump reads held counts (the
          router's rebalancing), [infinity] otherwise. *)
}

val create :
  ?obs:Renaming_obs.Obs.t ->
  ?tap:(now:float -> Audit.event -> unit) ->
  ?wake:wake ->
  clock:Renaming_clock.Clock.t ->
  rng:Renaming_rng.Xoshiro.t ->
  config ->
  t
(** [?tap] hears every {!Audit.event}, stamped with the clock's
    reading; without one no event is built.  The router uses it to
    forward each slice's events, tagged with the slice, without the
    service knowing about shards.  [?wake] is the cell this body lowers
    (see {!wake}); without one it lowers nothing. *)

(** {2 Client operations} *)

type outcome =
  | Granted of Lease.grant
  | Queued of int  (** ticket; resolution arrives from {!pump} *)
  | Shed of Admission.shed_reason

val acquire : t -> session:int -> outcome
(** Fast path grants immediately when the queue is empty, utilization is
    below the high-water mark and capacity remains; otherwise the
    request queues or sheds. *)

val renew : t -> fence:Lease.fence -> (float, [ `Fenced ]) result
val release : t -> fence:Lease.fence -> (float, [ `Fenced ]) result

val use : t -> fence:Lease.fence -> (unit, [ `Fenced ]) result
(** Fenced access check — the operation a reclaimed (stale) client must
    always see rejected. *)

(** {2 Service loop} *)

type completion =
  | Done of { ticket : int; session : int; grant : Lease.grant; waited : float }
  | Timed_out of { ticket : int; session : int; waited : float }

val pump : t -> completion list
(** Reclaim expired leases, expire overdue queued requests, then grant
    from the queue head while capacity allows.

    Before {!next_due}, [pump] returns [[]] and changes nothing: no
    statistic, histogram, counter or tap event moves.  That check is
    all an idle pump costs, and it allocates nothing: it reads the queue
    depth and asks {!Lease.due}, a [bool], rather than comparing with
    the float {!next_due}, which would come back boxed.

    The client operations make the same check before reclaiming: with
    nothing due they build no list and no closure for it. *)

val next_due : t -> float
(** The earliest clock reading at which {!pump} has work:
    [neg_infinity] while the admission queue is non-empty or the expiry
    heap is due for compaction, otherwise the expiry heap's smallest
    entry ({!Lease.next_due}), or [infinity] when the heap is empty.
    O(1); the result is boxed (two words), so the idle checks in {!pump}
    and before a reclaim ask {!Lease.due} instead. *)

(** {2 Introspection} *)

type stats = {
  mutable grants : int;
  mutable queued : int;
  mutable renews : int;
  mutable releases : int;
  mutable fenced : int;  (** stale operations rejected by epoch fencing *)
  mutable sheds_high_water : int;
  mutable sheds_queue_full : int;
  mutable expired_requests : int;
  mutable reclaims : int;
  mutable validates : int;
}

val sum_stats : t list -> stats
(** A fresh record of the services' summed counts. *)

val held : t -> int
val slots : t -> int
val probes_hist : t -> Renaming_obs.Hist.t
(** Probes per grant. *)

val reclaim_lateness_hist : t -> Renaming_obs.Hist.t
(** Centiticks between lease expiry and its reclamation (1 clock unit
    = 100 centiticks, as in the histograms below). *)

val queue_wait_hist : t -> Renaming_obs.Hist.t
(** Centiticks queued requests waited before grant or timeout. *)

val lifetime_hist : t -> Renaming_obs.Hist.t
(** Centiticks between grant and voluntary release. *)

