(** One shard of the sharded renaming service: a failure domain that
    hosts {e slice bodies}.

    A {e slice} is an independent {!Service} stack (lease table and
    admission queue) owning a contiguous range of the global namespace;
    a shard is the process-like unit that slices live on and that the
    fault injector targets.  Ownership — which shard serves which
    slice — is {e not} recorded here: the {!Router}'s directory is the
    single source of truth, so a stalled shard holding a stale body
    cannot be reached once the directory has moved on.

    Failure modes:
    - {b crash}: every resident slice body is lost (state gone, its
      dedup table and ticket waits with it); the names its leases
      covered come back only by lease expiry at the adopting shard;
    - {b stall}: the shard stops serving until [until] (injectable-clock
      pause); bodies are retained and serve again on wake — unless the
      router has reassigned them in the meantime, in which case the
      bodies are dropped as fenced. *)

type status =
  | Alive
  | Stalled of { since : float; until : float }
  | Crashed of { since : float }

type slice = {
  sl_id : int;
  mutable sl_epoch : int;
  sl_svc : Service.t;
  sl_dedup : Reply.t Dedup.t;
  sl_waits : (int, int * int) Hashtbl.t;  (** ticket -> (client, seq) of the queued request *)
}
(** A slice body: its id, its {e slice epoch} (bumped on every ownership
    transfer), its service stack and its request state (dedup table and
    ticket waits).  A clean handoff moves the body whole, a crash or a
    stale-body drop loses it, and an adopted body starts empty. *)

type t

val create : id:int -> wake:Service.wake -> t
(** [wake] is the owner's wake cell: {!crash}, {!restart} and {!stall}
    set its [at] to [neg_infinity], so the owner's next pump sees the
    new status. *)

val id : t -> int

val incarnation : t -> int
(** 0 at {!create}, bumped by every {!restart}; a heartbeat carries it. *)

val slices : t -> slice list

val status : t -> now:float -> status
(** Effective status at [now]; an elapsed stall heals in place. *)

val alive : t -> now:float -> bool

val find_slice : t -> slice:int -> slice
(** The resident body of [slice] at any epoch, else [Not_found]; a hit builds no [Some]. *)

val serving : t -> slice:int -> epoch:int -> now:float -> slice option
(** The body that answers a request for [slice] at the directory's
    [epoch], if any: the shard is alive at [now] and its resident body
    of [slice] is at [epoch].  This is the one rule for every request a
    shard executes, through the router or forwarded to it; a body at
    another epoch is one the directory has moved on from. *)

val attach : t -> slice -> unit
val detach : t -> slice:int -> slice option

val crash : t -> now:float -> unit
val restart : t -> unit
val stall : t -> now:float -> until:float -> unit

val held : t -> int
(** Leases held over every resident slice. *)
