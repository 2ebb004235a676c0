(** The τ-register of §II-B: τ name slots guarded by a counting device.

    A τ-register owns a contiguous slice [base .. base+τ-1] of the
    global namespace and a counting device over [width] TAS bits
    (the paper uses [width = 2 log n] and [τ = log n]).  The protocol:

    + a process wins one of the device's TAS bits (at most τ processes
      ever succeed);
    + it then scans the τ name slots with ordinary TAS operations until
      it wins one — guaranteed, because at most τ searchers exist for
      exactly τ slots.

    Requests to the device are queued here, in two [int] arrays of pids
    and bits, and answered when the device clock next ticks; the
    executor drives [run_cycle] at a configurable cadence, modelling the
    paper's "requests are only answered in a certain phase … the
    processing may start with a (constant) delay". *)

type t

val create :
  ?rule:Counting_device.discard_rule -> base:int -> tau:int -> width:int -> unit -> t

(* lint: allow unused-export — test hook: observes the register *)
val base : t -> int

(* lint: allow unused-export — test hook: the slot range check *)
val name_slot : t -> int -> int
(** [name_slot t k] is the global name index of slot [k], [0 ≤ k < τ]. *)

val submit : t -> pid:int -> bit:int -> unit
(** Queue a TAS-bit request for the next cycle; [pid]'s answer reads
    [Pending] again until that cycle runs.  One step.  The register
    keeps one answer per pid that ever submitted to it.
    @raise Invalid_argument if [pid < 0]. *)

type answer = Pending | Won_bit | Lost_bit

val poll : t -> pid:int -> answer
(** The requester's view after its request: [Pending] until the cycle
    containing the request has run, then [Won_bit] (bit confirmed in
    [out_reg]) or [Lost_bit] (lost the race or revoked).  A pid that
    never submitted, a negative one included, reads [Pending].  One
    step; allocates nothing. *)

val run_cycle : ?resolve_order:((int * int) array -> unit) -> t -> unit
(** Run one device clock cycle ({!Counting_device.cycle}) over the
    queued requests, in submission order.  Allocates nothing once the
    queue has grown.  [resolve_order] lets a test permute same-cycle
    requests: it receives them as [(pid, bit)] pairs and may reorder the
    array in place before they race; only then is that array built. *)

(* lint: allow unused-export — test hook: observes the answer table *)
val pending_count : t -> int

(* lint: allow unused-export — test hook: observes the answer table *)
val accepted_count : t -> int
