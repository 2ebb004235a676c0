(** The lease service's event stream, and the exception a safety
    oracle raises on it.

    A {!Service} created with [?tap] hears one event per grant,
    renewal, validation, release and reclaim, stamped with the
    service's clock; the {!Router} forwards them as
    [Router.Tap_audit].  The service checks nothing itself: the lease
    path's safety oracle is the refinement spec, which
    [Renaming_refine.Lease_adapter] feeds from this stream and which
    raises {!Violation} at the first event it cannot explain. *)

exception Violation of { kind : string; message : string }

type event =
  | Granted of { fence : Lease.fence; expires : float; capacity : int }
      (** [capacity]: the most leases the granting table may hold *)
  | Renewed of { fence : Lease.fence; expires : float; accepted : bool }
  | Validated of { fence : Lease.fence; accepted : bool }
  | Released of { fence : Lease.fence; accepted : bool }
  | Reclaimed of { fence : Lease.fence }
