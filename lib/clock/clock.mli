(** Injectable monotonic clocks.

    Library code must never read the wall clock directly (the
    [wall-clock] lint rule of {!Renaming_analysis.Lint} enforces this):
    time is a capability passed in from the edge.  Simulated components
    use {!virtual_} (deterministic, replayable), the [bin/] entry points
    construct a real clock from [Unix.gettimeofday] — the only place a
    real time source is allowed to appear — and tests can inject
    whatever ticking behaviour the scenario needs.

    A clock is just a labelled [unit -> float] returning monotone
    non-decreasing seconds; nothing here depends on the unit actually
    being a second, only on monotonicity. *)

type t

val of_fn : label:string -> (unit -> float) -> t
(** Wrap an arbitrary time source.  The function must be monotone
    non-decreasing. *)

val label : t -> string

val now : t -> float

val none : t
(** The absent clock: always reads [0.].  Deadlines measured against it
    never expire; durations come out as [0.].  The default everywhere a
    clock is optional, so simulator behaviour is bit-for-bit identical
    whether or not a caller threads one through. *)

(* lint: allow unused-export — test fake: a clock whose deadlines trip after known polls *)
val virtual_ : ?step:float -> unit -> t
(** A deterministic virtual clock: every read advances it by [step]
    (default [1.0]) and returns the pre-advance value, so the k-th read
    observes [(k-1) * step].  Under the simulator this makes time a pure
    function of how often it is consulted — replayable and
    schedule-independent. *)

val elapsed_since : t -> float -> float
(** [elapsed_since t t0] is [now t -. t0]. *)
