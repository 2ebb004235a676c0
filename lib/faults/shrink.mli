(** Counterexample shrinking: delta-debugging minimisation of directed
    schedules that trigger a {!Monitor} violation.

    Given a {!Target.t} (a deterministic instance builder and the
    monitor mode that judges it), a seed and a failing
    {!Renaming_sched.Directed.choice} prefix, {!shrink} searches for a
    1-minimal prefix that still triggers the *same* failure — same
    {!Monitor.violation} [kind] (or livelock), as {!Monitor.judge}
    classifies it — by re-replaying the
    instance from scratch after every candidate cut.  Passes, in order:

    + truncate to the decisions the failing run actually took;
    + drop all transient-fault injections;
    + drop all crash/recover events;
    + drop every choice touching one pid (per pid);
    + ddmin chunk removal down to granularity 1 (1-minimality: removing
      any single remaining choice no longer reproduces the failure).

    Minimised counterexamples are persisted as replayable [repro]
    artifacts (plain text, [repro_to_string]/[repro_of_string]) under
    [results/repros/] by the chaos campaign, [renaming mcheck] and
    [renaming fuzz], and replayed by [renaming shrink], which resolves
    the artifact's [algorithm] and [n] headers to the one target of
    that name and size.  An artifact records no monitor mode: the
    target declares it. *)

type failure = {
  f_kind : string;  (** {!Monitor.violation} kind, or ["livelock"], or ["exception:<name>"] *)
  f_message : string;
}

type input = {
  target : Target.t;  (** what is replayed, and the monitor mode that judges it *)
  seed : int64;  (** the instance seed the failure was observed at *)
  choices : Renaming_sched.Directed.choice list;  (** the failing prefix *)
  max_ticks : int;  (** livelock guard per replay *)
  tau_cadence : int;
      (** τ-device cycle cadence the failure was observed under (see
          {!Renaming_sched.Executor.run}); replays must match it or
          device-timing failures do not reproduce.  Use [1] for
          algorithms without τ-registers (the executor default). *)
}

type result = {
  r_input : input;  (** [r_input.choices] is the original prefix *)
  r_failure : failure;  (** failure of the minimised prefix *)
  r_choices : Renaming_sched.Directed.choice list;  (** minimised, 1-minimal *)
  r_replays : int;  (** executions spent, including the initial check *)
}

(* lint: allow unused-export — test hook: a repro replays to its recorded kind *)
val execute :
  input -> Renaming_sched.Directed.choice list -> Renaming_sched.Directed.result * failure option
(** One monitored replay of a candidate prefix (permissive mode):
    builds a fresh instance, runs it under a fresh safety monitor, and
    classifies the outcome.  [None] means the run completed cleanly. *)

val shrink : ?max_replays:int -> input -> result option
(** [None] if [input.choices] does not fail in the first place.
    [max_replays] (default [4000]) caps total executions; if the budget
    runs out the result is still a valid counterexample, just not
    necessarily 1-minimal. *)

type repro = {
  rp_algorithm : string;
  rp_n : int;
  rp_seed : int64;
  rp_max_ticks : int;
  rp_tau_cadence : int;
  rp_kind : string;
  rp_choices : Renaming_sched.Directed.choice list;
}

val to_repro : result -> repro
(** The artifact of a shrunk failure: the input's target name, [n],
    seed, livelock guard and cadence, and the minimised choices. *)

val repro_to_string : repro -> string
(** Plain-text artifact: [key: value] headers ([algorithm], [n], [seed],
    [max-ticks], [tau-cadence], [kind], and [trace-format: condensed])
    followed by a [trace:] section holding one dejafu-style
    {!Renaming_sched.Directed.condensed} line, e.g. [S0x2--P1--S2].
    [rp_choices] is the single source of truth — the condensed body is
    derived from it on the way out. *)

val repro_to_json : repro -> Renaming_obs.Json.t
(** The artifact as a results-file object: [algorithm], [n], [seed] (a
    decimal string), [kind], [tau_cadence] and [choices] (one
    {!Renaming_sched.Directed.choice_to_string} each). *)

val repro_of_string : string -> (repro, string) Stdlib.result
(** Inverse of {!repro_to_string}.  Every header it writes is required,
    and [trace-format] must read [condensed]; a header this parser does
    not read is ignored. *)
