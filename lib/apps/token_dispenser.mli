(** A wait-free bounded token dispenser built from counting devices —
    the paper's concluding suggestion ("this device may have the
    potential to speed up other distributed algorithms as well") made
    concrete.

    A dispenser hands out at most [capacity] tokens, ever.  Capacity is
    spread over [⌈capacity/τ⌉] counting devices (a device holds at most
    [τ ≤ 31] tokens with a [2τ]-bit register); a process acquires a
    token by winning a TAS bit on a randomly probed device, falling
    back to a sweep of all devices, so acquisition is unconditional as
    long as tokens remain.  Each probe costs one device cycle.

    Safety: never more than [capacity] tokens granted, each token id
    granted at most once.  Liveness: while tokens remain, every
    acquire eventually succeeds. *)

type t

val create :
  ?rule:Renaming_device.Counting_device.discard_rule ->
  ?tau:int ->
  capacity:int ->
  unit ->
  t
(** [tau] is the per-device threshold (default 16, max 31). *)

val capacity : t -> int
val device_count : t -> int
val granted : t -> int

type grant = { token : int; probes : int }

val try_acquire : t -> pid:int -> rng:Renaming_rng.Xoshiro.t -> grant option
(** [None] iff the dispenser is exhausted.  [probes] counts device
    submissions performed (the step cost). *)

val check_invariants : t -> (unit, string) result
