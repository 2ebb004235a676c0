(** Directed executions: drive {!Executor.run} through an explicit list
    of adversary choices, then fall back to a deterministic
    non-preemptive default, recording every decision point along the
    way.

    This is the substrate of systematic schedule exploration
    ([Renaming_mcheck]) and counterexample shrinking
    ([Renaming_faults.Shrink]): a schedule is identified by its [choice]
    prefix — everything after the prefix is filled in by the default
    policy (keep running the previous process; when it finishes or
    blocks, run the lowest-numbered runnable pid), which never crashes,
    recovers or injects faults.  Given a deterministic instance builder,
    the same prefix always reproduces the same execution.

    A [choice list] is the one schedule format: any run records its own
    through {!choice_of_event} on {!Executor.run}'s [on_event], and
    [run ~strict:true ~prefix] replays it, since the seed already fixes
    every coin flip. *)

type choice =
  | Step of int  (** schedule this pid's pending operation *)
  | Fault of int
      (** schedule this pid but make the operation fault transiently
          (respond {!Op.Faulted} without touching memory); only feasible
          when the pending operation is {!Op.faultable} *)
  | Crash of int
  | Recover of int

val choice_to_string : choice -> string
(** ["step 3"], ["fault 1"], ["crash 0"], ["recover 2"] — how results
    files and reports print one decision. *)

val choice_of_event : Executor.event -> choice option
(** The decision behind one {!Executor.event}: a step that responded
    {!Op.Faulted} is a [Fault], any other step a [Step], a crash a
    [Crash], a recovery a [Recover]; a return is no decision ([None]).
    Collected from an [on_event] listener, these are the run's schedule,
    which {!run} replays — injected faults included, without the
    injector's RNG. *)

(** Why a strict {!run} could not apply its prefix. *)
type divergence = {
  at : int;  (** decision index at which replay failed (= choices consumed so far) *)
  expected : choice option;
      (** the choice that was infeasible, or [None] when the prefix ran
          out while processes were still runnable *)
  time : int;  (** executor time at the failing decision *)
  runnable : int list;  (** pids runnable at that point, ascending *)
  crashed : int list;  (** pids crashed at that point, ascending *)
}

exception Divergence of divergence
(** Raised by a strict {!run}.  Structured so shrinkers and users can
    act on it instead of parsing a [Failure] string. *)

(** One decision point of the recorded execution. *)
type point = {
  index : int;  (** 0-based decision index *)
  time : int;  (** executor time (executed steps so far) *)
  prev : int;  (** pid whose operation executed last, [-1] before the first step *)
  runnable : int array;  (** runnable pids, ascending *)
  crashed : int array;  (** currently crashed pids, ascending *)
  ops : Op.t array;  (** [ops.(i)] is the pending operation of [runnable.(i)] *)
  taken : choice;  (** the decision actually applied here *)
}

type outcome =
  | Finished of Report.t
  | Raised of exn
      (** an exception escaped the run — typically a monitor violation
          raised from the [on_event] hook, or {!Divergence} in strict
          mode *)

type result = {
  points : point array;  (** decision points with [index >= record_from] *)
  taken : choice array;  (** every decision applied, in order, from index 0 *)
  dropped : int;  (** prefix choices skipped as infeasible (permissive mode only) *)
  outcome : outcome;
}

val run :
  ?obs:Renaming_obs.Obs.t ->
  ?max_ticks:int ->
  ?tau_cadence:int ->
  ?strict:bool ->
  ?record_from:int ->
  ?yield_rotate:int ->
  ?on_event:(Executor.event -> unit) ->
  prefix:choice list ->
  Executor.instance ->
  result
(** Replays [prefix], then extends with the default policy until the
    run ends.  A choice is *feasible* when its pid is in the required
    state ([Step]/[Crash]: runnable; [Fault]: runnable with a faultable
    pending op; [Recover]: crashed).

    [strict] (default [false]) makes [run] a replayer: an infeasible
    choice, or a prefix that runs out while processes are still
    runnable, raises {!Divergence} (carrying the decision index, the
    expected choice and the runnable/crashed sets), so a recorded
    schedule ({!choice_of_event}) replays exactly or not at all.  In
    permissive mode an infeasible choice is skipped and counted in
    [dropped] and the default policy extends the prefix — the mode
    shrinkers use, because deleting events from a prefix legitimately
    invalidates later ones.

    [record_from] (default 0): skip materialising [points] below this
    index — exploration only expands alternatives past its own prefix,
    and not recording the prefix keeps deep DFS cheap.  [taken] is
    always complete.

    Any exception escaping the underlying {!Executor.run} (including
    violations raised by an [on_event] monitor hook) is captured in
    [outcome] so the caller still gets the partial record.
    [max_ticks] defaults to [100_000] — directed runs are small by
    design and the guard turns accidental livelock into a structured
    {!Report.Livelock} outcome.

    [yield_rotate] (default: off) is the *fairness/yield bound* of the
    default tail: once one pid has run that many consecutive steps, the
    default policy hands the processor to the cyclically next runnable
    pid at the spinning pid's next [Yield] (deliberate backoff) point
    instead of spinning the waiter against the livelock guard.
    Retry/backoff loops ({!Retry}, the service handoff
    protocols) yield while waiting for another process's progress; an
    unfair tail would burn the whole [max_ticks] budget there.  The
    bound only redirects the deterministic *default* policy — explicit
    prefix choices are never overridden — so directed replays stay
    deterministic. *)

val condensed : ?points:point array -> choice array -> string
(** Dejafu-style condensed rendering of a schedule, e.g. [S0x2--P1--S2]:
    [S] starts or non-preemptively continues a pid, [P] preempts a
    still-runnable one, [F]/[C]/[R] are fault/crash/recover injections,
    and [xk] collapses [k] consecutive steps of one pid (so the string
    remains replayable, unlike dejafu's).  With [points] (matching the
    recorded decision points) the [S]/[P] distinction is exact;
    without, every switch after the first segment is conservatively
    rendered [P]. *)

val choices_of_condensed : string -> (choice list, string) Stdlib.result
(** Inverse of {!condensed} ([S]/[P] both parse as steps — the
    distinction is derivable from the replay, not trusted from the
    artifact). *)
