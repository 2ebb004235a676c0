(** The counting device of §II-C, simulated bit-exactly.

    The device manages a register of [width] TAS bits ([in_reg]) and
    admits at most [threshold] (τ) winners over its lifetime.  One clock
    cycle (the paper's lines 1–14) works in two phases:

    + every queued request test-and-sets its bit in [in_reg]; a request
      to an already-set bit loses, and of several requests to the same
      free bit exactly one preliminarily wins;
    + if the preliminary winners push [popcnt in_reg] above τ, the
      supernumerary *new* bits are unset again.  The paper selects the
      survivors by shifting [util_reg_0 = out_reg xor in_reg] left until
      exactly [allowed_bits] bits remain and a 1-bit sits in the first
      (most significant) position — because the hardware shift drops
      bits at the register boundary, this keeps the [allowed_bits]
      lowest-indexed new bits.  [out_reg] then holds exactly the
      accepted bits and is copied back to [in_reg].

    A process that preliminarily won learns its fate from the cycle's
    outcome: [Confirmed] (bit set in [out_reg]) or [Revoked] (bit unset
    again in [in_reg]).  {!cycle} is the one implementation of a clock
    cycle: it works in place on an [int] array of requested bits and
    writes each request's verdict over it, allocating nothing; {!tick}
    wraps it for callers that hold [(pid, bit)] tuples.

    Two discard rules are provided: [Literal] executes the paper's
    shifting procedure verbatim on masked machine words; [Reference]
    keeps the lowest-indexed new bits directly.  They are property-tested
    to be equivalent, which validates the paper's hardware procedure. *)

type discard_rule =
  | Literal  (** lines 5–12 exactly: xor, masked shifts, popcnt, bt *)
  | Reference  (** keep the [allowed_bits] lowest-indexed new bits *)

type t

val create : ?rule:discard_rule -> width:int -> threshold:int -> unit -> t
(** [width] is the number of TAS bits (the paper's [2 log n]), 1–62;
    [threshold] is τ, [1 ≤ threshold ≤ width]. *)

val width : t -> int

val in_reg : t -> Renaming_bitops.Word.t
val out_reg : t -> Renaming_bitops.Word.t

val accepted_count : t -> int
(** Bits accepted so far = [popcount out_reg]; never exceeds τ. *)

val remaining_capacity : t -> int

val is_full : t -> bool

type outcome =
  | Lost  (** bit was already set, or another request won the race *)
  | Confirmed  (** preliminary win survived the discard step *)
  | Revoked  (** preliminary win was unset by the discard step *)

val cycle : t -> int array -> int -> unit
(** [cycle t bits count] runs one clock cycle (lines 1–14) over the
    requests [bits.(0) .. bits.(count-1)], each a bit index, in that
    order (the order encodes the adversary's resolution of same-bit
    races).  It overwrites each entry with its verdict: {!confirmed} for
    a preliminary win that survived the discard step, another negative
    code for a lost or revoked request.  Allocates nothing.
    @raise Invalid_argument on an out-of-range bit index or [count]. *)

val confirmed : int
(** The verdict {!cycle} writes for a request whose bit is now set in
    [out_reg]. *)

val tick : t -> requests:(int * int) array -> outcome array
(** [tick t ~requests] is {!cycle} over [(pid, bit)] requests, with one
    outcome per request, positionally; the pids only label the
    requests.  It allocates its arrays, so the simulator and the apps
    call {!cycle}. *)

val cycles : t -> int
(** Number of clock cycles executed. *)

val check_invariants : t -> (unit, string) result
(** [accepted_count ≤ τ], [in_reg = out_reg] between cycles, accepted
    bits only ever grow. *)
