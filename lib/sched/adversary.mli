(** Adversaries: scheduling (and crash) policies.

    The model of §II-A gives the adversary full control over the order
    of steps and crashes, with complete knowledge of process states
    including coin-flip results.  Here an adversary sees, at every tick,
    the set of runnable processes together with the operation each would
    perform next (which encodes its coin flips), and the entire shared
    memory; it picks the process to step, or crashes one.

    The runnable set is exposed as an indexed accessor rather than an
    array so that fair schedulers cost O(1) per tick; the adaptive
    adversaries that scan the whole set are O(count) per tick and are
    used at moderate [n]. *)

(** A view is only valid during the [decide] call it is passed to: the
    executor builds one view per run and refreshes [time] and
    [runnable_count] in place before every decision, so a view kept
    past its call reads later values.  Adversaries read these fields and
    never write them.  A [{ view with ... }] copy made inside [decide]
    (a sub-view over fewer processes, as {!Renaming_workload.Arrival}
    builds) is fine. *)
type view = {
  mutable time : int;  (** executed steps so far *)
  mutable runnable_count : int;
  runnable_nth : int -> int;  (** pid by index in [0, runnable_count); arbitrary stable order *)
  is_runnable : int -> bool;  (** by pid *)
  is_crashed : int -> bool;  (** by pid: crashed and not since recovered *)
  pending_op : int -> Op.t;  (** next operation of a runnable pid *)
  memory : Memory.t;
}

type decision =
  | Schedule of int  (** execute this pid's pending operation *)
  | Crash of int  (** crash this pid (costs the adversary nothing) *)
  | Recover of int
      (** resurrect a crashed pid: it restarts its program from the top
          (crash-recovery mode, docs/fault_model.md).  Only valid for a
          currently crashed pid. *)

type t = { name : string; decide : view -> decision }

val round_robin : unit -> t
(** Sweeps the runnable set cyclically — the fair baseline that makes
    the execution behave like the synchronous rounds the proofs reason
    about.  Returns a fresh (stateful) scheduler each call. *)

val uniform : Renaming_rng.Xoshiro.t -> t
(** Uniformly random runnable pid each tick. *)

val lifo : t
(** Always steps the highest-numbered runnable pid: an extreme unfair
    schedule that starves low pids. *)

val adaptive_contention : t
(** Adaptive heuristic: preferentially schedules processes whose pending
    operation targets an *already set* namespace register, wasting their
    step.  This maximises lost TAS operations, the main lever an
    adaptive adversary has against renaming algorithms.  O(count) per
    tick. *)

val colluding : t
(** Adaptive heuristic that maximises same-register collisions: when
    several runnable processes target the same free register it runs
    them back-to-back so all but one lose.  O(count) per tick. *)

val with_crashes : base:t -> crash_times:(int * int) list -> t
(** [with_crashes ~base ~crash_times] behaves like [base] but crashes
    pid [p] at the first tick at or after time [s] for every [(s, p)] in
    [crash_times].  Entries whose pid already finished are skipped. *)

val with_crash_recovery : base:t -> crashes:(int * int) list -> recover_after:int -> t
(** Crash-recovery schedule: behaves like {!with_crashes} for the
    [(time, pid)] entries of [crashes], and additionally resurrects each
    successfully crashed pid [recover_after] ticks after its crash (the
    executor restarts its program from the top, behind the recovery
    preamble — see {!Executor.run}).  Crashes that would kill the last
    runnable process are skipped, so pending recoveries are never
    stranded. *)

