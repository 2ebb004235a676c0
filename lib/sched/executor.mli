(** The asynchronous execution engine.

    Repeatedly asks the adversary which runnable process takes the next
    step (or which process crashes, or which crashed process recovers),
    executes that process's pending shared-memory operation, resumes its
    continuation (local computation runs eagerly until the next
    operation), and ticks the τ-register device clocks at a fixed
    cadence.  Terminates when every process has returned or crashed, or
    when the livelock guard trips.

    An *instance* bundles the shared memory with one program per
    process; each program returns the name it acquired ([Some name]) or
    [None] (almost-tight algorithms give up by design; a sound algorithm
    must never *claim* a name it did not win).  The report's assignment
    holds [name] for [Some name] and [-1] for [None] or a crash. *)

type instance = {
  memory : Memory.t;
  programs : int option Program.t array;  (** index = pid *)
  label : string;  (** algorithm name, for reports *)
}

val init_programs : int -> (int -> int option Program.t) -> int option Program.t array
(** [init_programs n f] is [Array.init n f], the program array of an
    instance, built without the minor collection [Array.init] forces
    once [n] exceeds 256 and [f 0] is young. *)

(** Everything observable about a run, in execution order — the feed of
    the online safety monitor ([Renaming_faults.Monitor]), which checks
    it against the centralized renaming spec. *)
type event =
  | Stepped of { time : int; pid : int; op : Op.t; response : Op.response }
  | Crashed of { time : int; pid : int }
  | Recovered of { time : int; pid : int }
  | Returned of { time : int; pid : int; value : int option }

val pp_event : Format.formatter -> event -> unit

val run :
  ?obs:Renaming_obs.Obs.t ->
  ?tau_cadence:int ->
  ?max_ticks:int ->
  ?on_event:(event -> unit) ->
  ?inject:(time:int -> pid:int -> op:Op.t -> bool) ->
  adversary:Adversary.t ->
  instance ->
  Report.t
(** [obs] attaches a telemetry capability: every event is mirrored into
    its ring (steps as instants, crash windows as spans, returns), the
    per-pid step counts land in the [<label>/steps] histogram, and
    [<label>/executor.steps], [<label>/named], [<label>/crashed] and
    [<label>/recovered] counters are updated.  Omitting it costs a
    single branch per event (docs/observability.md): with neither [obs]
    nor [on_event] attached, no {!event} value is built at all.

    [tau_cadence] (default 1): device cycles run after every [cadence]
    executed steps — the paper's constant answer delay.

    [max_ticks] guards against livelock (default [10^9]); exceeding it
    ends the run with outcome {!Report.Livelock} (still-running
    processes count as unnamed) instead of raising, so sweeps can record
    it.

    [on_event] sees every step with its response, every crash,
    recovery and return; {!Directed.choice_of_event} turns that stream
    into the run's replayable schedule.

    [inject ~time ~pid ~op] returning [true] makes that operation fail
    transiently: it does not touch memory and responds {!Op.Faulted}
    (the op still costs a step).  Injectors should only fault
    {!Op.faultable} operations — programs built from the plain
    primitives treat [Faulted] on other ops as a protocol error.

    A process the adversary recovers ({!Adversary.Recover}) restarts
    [programs.(pid)] from the top behind a {!Program.recover_owned}
    preamble, so a process that crashed after winning a register
    re-discovers and keeps that name rather than leaking it. *)
