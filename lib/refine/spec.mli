(** The centralized renaming specification — the whole correctness
    argument of every backend, in one state machine small enough to
    read in a sitting.

    State: which session holds which name, plus per-session
    invoked/crashed flags, and for the lease backends a clock, each
    held lease's expiry and each slice's held count.  The safety
    invariants are enabledness conditions on {!apply}:

    - {b uniqueness}: [Granted] is disabled while another session holds
      the name;
    - {b namespace-bound}: [Granted]/[Claimed] are disabled outside
      [0, namespace);
    - {b fencing}: [Released]/[Reclaimed]/[Claimed] are disabled unless
      the named session actually holds the name — an {e accepted}
      operation on a name the session does not hold is exactly the
      fenced-off ghost the lease layer must reject;
    - {b invocation} (one-shot mode): [Granted] is disabled unless the
      session has invoked and holds nothing — and [Reclaimed]/[Shed]
      clear the invocation, so a post-reclaim re-grant to a session
      that never re-invoked is inexplicable no matter which backend
      produced it.  A [Crashed] session abandons its live claims: the
      names it held stay consumed (granting one to another session is
      still inexplicable, and the recovered session re-discovering its
      old name is a stutter), but the recovered re-run may win a fresh
      name without tripping the one-claim rule.

    The lease backends add time ({!section-timed}).
    A backend trace refines the spec iff every adapted event is either
    an enabled transition ([`Step]), or changes nothing ([`Stutter]).
    [`Reject] names the first inexplicable event. *)

type config = {
  namespace : int;  (** names live in [0, namespace) *)
  one_shot : bool;
      (** [true]: the executor discipline — a session acquires at most
          one name and must re-invoke after a reclaim.  [false]: the
          lease discipline — a session may hold several leases (an
          abandoned queue ticket can grant after the retry already
          did), and only the fencing/uniqueness invariants bind. *)
}

type t

val create : config -> t

type verdict = [ `Step | `Stutter | `Reject of string ]

val apply : t -> Obs_event.t -> verdict
(** Deterministic; [`Reject] leaves the state unchanged. *)

val holder : t -> name:int -> int option
(** The session currently holding [name], if any. *)

val held : t -> int
(** Names currently held. *)

(** {2:timed The timed lease rules}

    The lease backends run on a clock, and a lease lasts until an
    expiry its holder may push forward.  Their adapter
    ([Lease_adapter]) stamps each event with the clock and calls the
    functions below, which add these rules:

    - [time-regression]: no timed event is enabled before the clock;
    - [over-capacity]: a slice (one lease table) holds at most its
      capacity;
    - [expiry-regression]: a renewal never moves an expiry back;
    - [early-reclaim], [early-absorb]: a reclaim or a router's slice
      absorb takes a name from its holder, so it is enabled only once
      the holder's lease has expired;
    - an accepted renewal or use is a claim by the holder.

    An accepted timed event moves the clock to its [now] (time alone
    makes no step); a rejected one changes nothing.  An untimed grant
    has already expired, and {!apply} judges a [Reclaimed] at the
    clock. *)

val at : t -> now:float -> Obs_event.t -> verdict
(** {!apply} at [now]. *)

val lease :
  t -> now:float -> session:int -> name:int -> expires:float -> slice:int -> capacity:int -> verdict
(** [Granted] until [expires], from slice [slice] (an index below the
    namespace) of at most [capacity] names. *)

val renew : t -> now:float -> session:int -> name:int -> expires:float -> verdict
(** A claim that moves the holder's expiry to [expires]: a [`Step], or
    a [`Stutter] if it stays put. *)

val use : t -> now:float -> session:int -> name:int -> verdict
(** A claim: a [`Stutter]. *)

val absorb : t -> now:float -> session:int -> name:int -> verdict
(** The holder loses [name] to a slice absorb. *)

(* lint: allow unused-export — test hook: a rejected step leaves the spec state unchanged *)
val snapshot : t -> string
(** Canonical rendering of the full state (sorted), for determinism
    tests and counterexample reports. *)
