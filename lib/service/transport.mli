(** Deterministic simulated network for the sharded renaming service.

    Carries typed envelopes between client, router and shard nodes of
    the discrete-event simulation, with injectable message faults:

    - {b drop}: a send vanishes with probability [drop];
    - {b duplicate}: a send is delivered twice, each copy with an
      independently sampled delay, with probability [duplicate];
    - {b bounded delay}: every delivery is delayed uniformly within
      [[delay_min, delay_max]];
    - {b reorder}: with probability [reorder] a message is additionally
      delayed by up to [reorder_extra], letting later sends overtake it;
    - {b directional partitions}: messages from [src] to [dst] are
      discarded until a deadline, one direction at a time (an asymmetric
      partition — e.g. a shard's heartbeats lost while requests still
      reach it — is two independent rules).

    Delivery is {e bounded}: a message that is delivered at all arrives
    within {!max_delay} of its send.  That bound is what makes dedup
    window eviction and failure-detector timeouts sound, so it is
    exposed rather than implied (docs/fault_model.md §8).

    Fully deterministic: fault draws come from the injected {!Xoshiro}
    generator and delivery order is keyed [(time, send sequence)], so
    two runs with the same seed and send sequence deliver identically.
    The transport never reads a clock — callers pass [now] explicitly
    and pull due deliveries from the event loop. *)

type addr = Client of int | Router | Shard of int

type faults = {
  drop : float;  (** P[a send is lost] *)
  duplicate : float;  (** P[a send is delivered twice] *)
  delay_min : float;
  delay_max : float;  (** uniform per-delivery delay bounds *)
  reorder : float;  (** P[extra delay, letting later sends overtake] *)
  reorder_extra : float;  (** max extra delay of a reordered message *)
}

val make_faults :
  ?drop:float ->
  ?duplicate:float ->
  ?delay_min:float ->
  ?delay_max:float ->
  ?reorder:float ->
  ?reorder_extra:float ->
  unit ->
  faults
(** Defaults: no drop/duplicate/reorder, delay uniform in [0.01, 0.05].
    Raises on probabilities outside [0, 1] or malformed delay bounds. *)

val perfect : faults
(** No faults, zero delay: function-call semantics over the envelope
    path, for differential tests. *)

type stats = {
  mutable sent : int;  (** accepted sends (excludes dropped/blocked) *)
  mutable delivered : int;
  mutable dropped : int;
  mutable duplicated : int;
  mutable reordered : int;
  mutable blocked : int;  (** discarded by a directional partition *)
}

type 'a t

val create : ?faults:faults -> rng:Renaming_rng.Xoshiro.t -> unit -> 'a t

val max_delay : 'a t -> float
(** The delivery bound: [delay_max + reorder_extra].  No message is in
    flight longer than this. *)

val send : 'a t -> now:float -> src:addr -> dst:addr -> 'a -> unit
(** Subject to the faults, put [payload] in flight.  The fault and delay
    draws are made in a fixed order (drop, delay, reorder, then
    duplicate and the copy's delay), so the send sequence and the seed
    fix every delivery.  Raises [Invalid_argument] for a [Client] or
    [Shard] index outside [[0, 2^29)]. *)

val partition : 'a t -> src:addr -> dst:addr -> until:float -> unit
(** Discard messages sent from [src] to [dst] until [until] (checked at
    send time).  Re-partitioning a pair extends/replaces its deadline;
    in-flight messages already past the send check are unaffected. *)

val partitioned : 'a t -> now:float -> src:addr -> dst:addr -> bool

val next_delivery : 'a t -> float
(** Earliest in-flight delivery time; [infinity] when nothing is in
    flight.  Boxes its result (see {!Heap}); an event loop asks
    {!delivers_first} and {!delivery_after} instead. *)

val delivers_first : 'a t -> 'b Heap.t -> bool
(** [delivers_first t heap] is [next_delivery t <= Heap.top_time heap],
    an empty side counting as [infinity], decided without boxing a
    float: the merge test of an event loop that lets a delivery go
    before a timer due at the same instant. *)

val delivery_after : 'a t -> now:float -> bool
(** A message is in flight and its delivery time is [> now]. *)

val deliver : 'a t -> now:float -> (addr -> addr -> 'a -> unit) -> unit
(** [deliver t ~now f] calls [f src dst payload] for every message due
    at or before [now], in deterministic [(time, send seq)] order.

    The drain is bounded at entry: it delivers only messages sent before
    the call.  A message [f] sends is not delivered by this call, even
    with zero delay; it arrives on the next call whose [now] reaches
    it.  (A caller that never sends with a [now] earlier than the
    drain's gets exactly the messages that were due at entry.)

    Builds no list and no record per message: the addresses handed to
    [f] are values passed to {!send} earlier. *)

val in_flight : 'a t -> int
val stats : 'a t -> stats
