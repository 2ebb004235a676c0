(** The simulator's interpreter for probe plans ({!Renaming_plan.Plan}).

    [program plan ~rng] is one process running [plan]: it issues one
    [Tas_name] per step, drawing a probe's register from [rng], and
    returns the first name it wins, or [None] once the plan is spent.
    Every probe gets {!Retry.tas_name_after_fault}'s fault handling: a
    [Faulted] answer is retried with {!Retry}'s backoff, and a
    TAS whose retries all fault counts as lost.

    A process is its position in the plan (segment, steps left, current
    register) in one mutable record, so a fault-free probe step builds
    its [Tas_name] and [Step] and nothing else.  The program returned is
    parked at the first probe, and its continuation restores that
    position before going on: a process restarted after a crash
    ({!Executor.run} reruns [instance.programs.(pid)]) re-issues the
    same first register and then draws from its stream where the stream
    has got to.  A program value therefore belongs to one execution:
    the executor may rerun it after a crash, but two executions cannot
    share it (build the instance afresh for each run). *)

(** {2 Telemetry}

    A plan's telemetry is given stage by stage: a stage covers the
    segments from its start to the next stage's start (the last one to
    the plan's end) and records the events of its kind. *)

type stage =
  | Rounds of { prefix : string; span : string; first : int; named : int array option }
      (** A probing phase (Lemmas 6 and 8): per segment, a [span] span
          whose [span] argument is the segment's index in the stage plus
          [first]; [prefix/probes] and [prefix/wins] counters; [probe]
          (target) and [win] ([span], name) instants; [named.(i)]
          incremented on a win in the stage's segment [i]; and a
          [give-up] instant when the stage runs out. *)
  | Span of string * (string * int) list
      (** [Span (name, args)]: one [name] span from entering the stage
          to a win in it or its running out. *)
  | Instant of string  (** One instant on entering the stage. *)

type spans
(** One process's telemetry. *)

val spans : ?obs:Renaming_obs.Obs.scoped -> (int * stage) list -> spans option
(** [spans ?obs stages]: each stage with the segment it starts at, in
    increasing order from 0.  [None] when there is no [obs] and no
    stage has [named].  A stage opens when the process reaches its
    start, even if its segments are all empty; a skipped (empty)
    segment records nothing of its own. *)

val program :
  ?spans:spans ->
  ?rng:Renaming_rng.Xoshiro.t ->
  Renaming_plan.Plan.t ->
  int option Program.t
(** Raises [Invalid_argument] on reaching a non-empty [Probe] segment
    without [rng]. *)
