(** Independent safety auditor for the lease service.

    The auditor maintains its own mirror of who holds what, fed only by
    the event stream the service emits, and raises {!Violation} the
    moment an event contradicts the lease-safety invariants.  It shares
    no state with {!Lease} — a bug in the table cannot also hide the
    evidence.  The same stream also feeds the centralized renaming
    spec through [Renaming_refine.Lease_adapter]; the executors'
    counterpart is [Renaming_faults.Monitor].

    Invariants checked:
    - {b double-grant}: a grant names a slot the mirror believes is held;
    - {b capacity-exceeded}: grants outrun [capacity];
    - {b slot-range}: a granted name falls outside [0, slots);
    - {b stale-accept}: a renew/validate/release succeeded for a fence
      the mirror knows was fenced off (the crashed-client safety
      property);
    - {b fenced-live}: the service fenced an operation whose fence the
      mirror believes is current (liveness-side complement);
    - {b expiry-regression}: a renewal moved a lease's expiry backwards;
    - {b early-reclaim}: a reclamation fired before the lease's expiry;
    - {b time-regression}: the event clock went backwards. *)

exception Violation of { kind : string; message : string }

type t

val create : ?obs:Renaming_obs.Obs.t -> capacity:int -> slots:int -> unit -> t
(** With [?obs], registers [audit/violations] and [audit/near_misses]
    counters in the metrics registry so `renaming metrics` and the chaos
    reports surface them uniformly (previously only visible on raise). *)

type event =
  | Granted of { fence : Lease.fence; expires : float }
  | Renewed of { fence : Lease.fence; expires : float; accepted : bool }
  | Validated of { fence : Lease.fence; accepted : bool }
  | Released of { fence : Lease.fence; accepted : bool }
  | Reclaimed of { fence : Lease.fence; expired_at : float }

val observe : t -> now:float -> event -> unit
(** Feed one service event; raises {!Violation} on contradiction. *)

val live : t -> int
(** Leases the mirror believes are currently live. *)

val violations : t -> int
(** Violations detected (each also raised {!Violation}). *)

val near_misses : t -> int
(** Stale operations that arrived and were {e correctly} fenced off —
    the fence doing its job.  Zero violations with zero near misses
    means fencing was never exercised at all. *)
