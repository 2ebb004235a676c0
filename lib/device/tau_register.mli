(** The τ-register of §II-B: τ name slots guarded by a counting device.

    A τ-register stands for a contiguous slice of τ names of the
    global namespace and owns a counting device over [width] TAS bits
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
    processing may start with a (constant) delay".

    The register keeps no answers.  A requester has at most one request
    outstanding and learns the verdict for that request only, so a
    verdict is one [int] per pid, written by [run_cycle] into an array
    the caller owns; {!Renaming_sched.Memory} keeps one such array for
    all its registers. *)

type t

val create : ?rule:Counting_device.discard_rule -> tau:int -> width:int -> unit -> t
(** A register of [tau] name slots over a [width]-bit device.  Where
    the slots lie in the namespace is the caller's to know (Tight takes
    it from [Params.tau_geometry]).  Raises [Invalid_argument] unless
    [1 ≤ tau ≤ width]. *)

val submit : t -> pid:int -> bit:int -> unit
(** Queue a TAS-bit request from [pid] for the next cycle.  One step;
    allocates nothing once the queue has grown.
    @raise Invalid_argument if [pid < 0]. *)

(** The requester's view of its latest request: [Pending] until the
    cycle containing it has run, then [Won_bit] (bit confirmed in
    [out_reg]) or [Lost_bit] (lost the race or revoked). *)
type answer = Pending | Won_bit | Lost_bit

val run_cycle :
  ?resolve_order:((int * int) array -> unit) -> t -> won:int -> lost:int -> int array -> unit
(** [run_cycle t ~won ~lost answers] runs one device clock cycle
    ({!Counting_device.cycle}) over the queued requests, in submission
    order, and writes [answers.(pid) <- won] for each request whose bit
    was confirmed and [answers.(pid) <- lost] for every other one.
    Allocates nothing once the queue has grown.  [resolve_order] lets a
    test permute same-cycle requests: it receives them as [(pid, bit)]
    pairs and may reorder the array in place before they race; only
    then is that array built. *)
