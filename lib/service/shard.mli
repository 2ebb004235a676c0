(** One shard of the sharded renaming service: a failure domain that
    hosts {e slice bodies}.

    A {e slice} is an independent {!Service} stack (lease table,
    admission queue, audit mirror) owning a contiguous range of the
    global namespace; a shard is the process-like unit that slices live
    on and that the fault injector targets.  Ownership — which shard
    serves which slice — is {e not} recorded here: the {!Router}'s
    directory is the single source of truth, so a stalled shard holding
    a stale body cannot be reached once the directory has moved on.

    Failure modes:
    - {b crash}: every resident slice body is lost (state gone); the
      names its leases covered come back only by lease expiry at the
      adopting shard;
    - {b stall}: the shard stops serving until [until] (injectable-clock
      pause); bodies are retained and serve again on wake — unless the
      router has reassigned them in the meantime, in which case the
      bodies are dropped as fenced. *)

type status =
  | Alive
  | Stalled of { since : float; until : float }
  | Crashed of { since : float }

type slice = { sl_id : int; mutable sl_epoch : int; mutable sl_svc : Service.t }
(** A slice body: its id, its {e slice epoch} (bumped on every ownership
    transfer) and the service stack holding its leases. *)

type t

val create : id:int -> wake:Service.wake -> t
(** [wake] is the owner's wake cell: {!crash}, {!restart} and {!stall}
    set its [at] to [neg_infinity], so the owner's next pump sees the
    new status. *)

val id : t -> int
val slices : t -> slice list

val status : t -> now:float -> status
(** Effective status at [now]; an elapsed stall heals in place. *)

val alive : t -> now:float -> bool

val find_slice : t -> slice:int -> slice option

val serving : t -> slice:int -> epoch:int -> now:float -> slice option
(** The body that answers a request for [slice] at the directory's
    [epoch], if any: the shard is alive at [now] and its resident body
    of [slice] is at [epoch].  This is the one rule for every request a
    shard serves, through the router or forwarded to it; a body at
    another epoch is one the directory has moved on from. *)

val attach : t -> slice -> unit
val detach : t -> slice:int -> slice option

val crash : t -> now:float -> unit
val restart : t -> unit
val stall : t -> now:float -> until:float -> unit

val held : t -> int
(** Leases held over every resident slice. *)
