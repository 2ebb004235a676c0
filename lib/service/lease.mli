(** The lease table: names with TTLs, epochs, and fenced operations.

    Every granted name is a {e lease}: it expires [ttl] after its grant
    (or last renewal) on the service clock.  Expiry is {e permission to
    reclaim}, not automatic revocation — a slow-but-alive client keeps
    working until the service actually reclaims the slot.  Reclamation
    bumps the slot's {e epoch}; the epoch captured in the client's
    {!fence} then no longer matches, so every later operation by the
    stale client ([renew]/[validate]/[release]) is rejected with
    [`Fenced].  This is the standard fencing-token construction: the
    token is checked at the resource, not trusted at the client.

    Slot sizing reuses the long-lived probing discipline
    ({!Renaming_longlived.Longlived.namespace_for}): [slots =
    max (capacity+1) ⌈(1+ε)·capacity⌉], acquires probe uniformly random
    slots up to [probe_cap] and then fall back to a deterministic sweep
    (which always succeeds while [held < capacity ≤ slots]). *)

type config = {
  capacity : int;  (** max simultaneously-held leases (admission bound) *)
  epsilon : float;  (** namespace slack, as in the long-lived algorithm *)
  ttl : float;  (** lease duration on the service clock *)
  probe_cap : int;  (** random probes before the deterministic sweep *)
}

val make_config : ?epsilon:float -> ?ttl:float -> ?probe_cap:int -> capacity:int -> unit -> config
(** Defaults: [epsilon = 0.5], [ttl = 10.0], [probe_cap = 64 · slots]. *)

type fence = { f_name : int; f_session : int; f_epoch : int }
(** The client's capability for one lease: the name, the session that
    holds it, and the slot epoch at grant time.  Compared wholesale on
    every fenced operation. *)

type t

val create : config -> t

val slots : t -> int
val held : t -> int
val utilization : t -> float
(** [held / capacity] — the admission controller's load signal. *)

type grant = { g_fence : fence; g_probes : int; g_swept : bool }

val acquire : t -> session:int -> now:float -> rng:Renaming_rng.Xoshiro.t -> (grant, [ `At_capacity ]) result
(** Grant a fresh lease expiring at [now + ttl].  [`At_capacity] when
    [held = capacity]; otherwise always succeeds ([g_swept] marks the
    probe-cap-exhausted slow path). *)

val renew : t -> fence:fence -> now:float -> (float, [ `Fenced ]) result
(** Extend the lease to [now + ttl] and return the new expiry.  Lenient:
    a lease past its expiry but not yet reclaimed renews fine — expiry
    only licenses reclamation, and fencing happens there. *)

val validate : t -> fence:fence -> (unit, [ `Fenced ]) result
(** The "am I still the holder?" check a client performs before acting
    on its name — the operation a stale client must never pass. *)

val release : t -> fence:fence -> now:float -> (float, [ `Fenced ]) result
(** Voluntary release; returns the held duration.  Bumps the epoch so
    the released fence is dead immediately. *)

type reclaimed = { r_fence : fence; r_lateness : float }
(** [r_lateness = reclaim time − expiry]: how long the name sat expired
    before the sweep caught it. *)

val reclaim_expired : t -> now:float -> reclaimed list
(** Reclaim every lease whose expiry is [≤ now], oldest first.  Renewed
    leases are skipped (their heap entries are stale — lazy deletion);
    reclaimed slots get an epoch bump and return to the free pool. *)

val due : t -> now:float -> bool
(** Whether {!reclaim_expired} [~now] has work: the expiry heap is due
    for compaction, or its smallest entry (live or dead) expires at or
    before [now].  When false, [reclaim_expired t ~now] returns [[]]
    and changes nothing.  A [bool] so that hot callers (every service
    operation, every pump) box no float; allocation-free. *)

val next_due : t -> float
(** The earliest [now] at which {!due} holds: [neg_infinity] when the
    expiry heap is due for compaction, else the time of its smallest
    entry, [infinity] when it is empty.  Boxes its result (two words),
    so the idle checks ask {!due} instead. *)

(* lint: allow unused-export — test hook: compaction bounds the expiry heap *)
val pending_expiries : t -> int
(** Current expiry-heap size, dead entries included — the quantity the
    compaction policy bounds at [max 32 (2 · held)]. *)
