(** Crash patterns for the fault-tolerance experiments (T9).

    Produce [(time, pid)] schedules for
    {!Renaming_sched.Adversary.with_crashes}. *)

val random :
  rng:Renaming_rng.Xoshiro.t -> n:int -> failures:int -> horizon:int -> (int * int) list
(** [failures] distinct pids crash at uniform times in [0, horizon).
    [failures = 0] is allowed and yields the empty schedule. *)

val burst :
  rng:Renaming_rng.Xoshiro.t -> n:int -> failures:int -> at:int -> width:int -> (int * int) list
(** All [failures] crashes land in the short window [at, at + width):
    [failures] distinct uniform pids at uniform times inside the window.
    The burst adversary of the chaos campaigns — a correlated failure
    (rack power loss) rather than independent attrition.

    Raises [Invalid_argument] when [failures = 0]: an empty burst is
    always a caller bug (typically [n / k] underflowing to 0 at small
    [n]) that would silently turn a crash cell into a fault-free run —
    unlike {!random}, which accepts 0. *)
