(** Per-shard at-most-once request deduplication.

    Clients tag every request with a strictly increasing sequence
    number; retransmits reuse the original number.  The table keeps, per
    client, the highest sequence executed and its cached reply:

    - a {e fresh} sequence (above the recorded one) executes — the
      caller must {!record} the reply it produced;
    - a retransmit of the recorded sequence {e replays} the cached reply
      without re-executing (at-most-once);
    - a sequence {e below} the recorded one is a stale duplicate that
      overtook newer traffic (reordering) — it is reported [Stale] and
      must be discarded, never executed: its client has already moved
      on, and re-executing it would double-grant.

    {b Bounded window, safe eviction.}  Entries idle longer than
    [window] are evicted by {!sweep}, bounding memory under client
    churn.  Eviction is {e safe} only once no duplicate of the entry's
    sequence can still arrive: the client has stopped retransmitting
    (its retry horizon passed) and the network holds nothing older than
    its delivery bound ({!Transport.max_delay}).  Callers must size
    [window] above [retry horizon + max network delay]; an entry evicted
    while a duplicate is still in flight lets that duplicate re-execute
    as fresh — the double-grant the [mutant-net-dedup-evict] fuzz target
    exhibits and docs/fault_model.md §8 derives the bound for. *)

type stats = {
  mutable fresh : int;  (** sequences admitted for execution *)
  mutable replays : int;  (** retransmits answered from the cache *)
  mutable stale : int;  (** reordered old duplicates discarded *)
  mutable evictions : int;  (** idle entries dropped by {!sweep} *)
}

type 'r t

val create : ?window:float -> stats -> 'r t
(** [create stats] counts its verdicts and evictions into [stats], which
    several tables may share: a table dropped with its slice body keeps
    its counts there.  Default [window] is [infinity]: nothing is ever
    evicted unless the caller opts into a bounded window.  Raises if
    [window <= 0]. *)

type 'r verdict = Fresh | Replay of 'r | Stale

val admit : 'r t -> client:int -> seq:int -> now:float -> 'r verdict
(** Classify an arriving request and touch its client's entry.  [Fresh]
    obliges the caller to execute and then {!record} the reply. *)

val record : 'r t -> client:int -> seq:int -> now:float -> 'r -> unit
(** Cache [reply] as the outcome of [(client, seq)]; replaces the
    client's previous entry.  Re-recording the same sequence (a queued
    request completing after its provisional reply) overwrites the
    cached reply, so later retransmits replay the final outcome. *)

val sweep : 'r t -> now:float -> int
(** Evict entries idle longer than the window; returns how many. *)
