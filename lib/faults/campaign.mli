(** Chaos campaign runner: sweep the cross-product of
    {algorithm × adversary × crash/recovery pattern × fault rate × seeds},
    run every cell under the online safety {!Monitor}, and summarise
    safety violations, livelocks and step-complexity degradation versus
    the fault-free fair-schedule baseline.

    The runner is generic over instance builders, so it lives below
    [lib/core]; the standard roster of paper algorithms is assembled in
    {!Renaming_harness.Chaos} and driven by [renaming chaos] / [make
    chaos]. *)

type adversary_spec = {
  adv_name : string;
  make_adversary : seed:int64 -> Renaming_sched.Adversary.t;
}

type pattern = {
  pat_name : string;
  schedule : seed:int64 -> n:int -> (int * int) list;  (** crash times, {!Renaming_workload.Crash_pattern} *)
  recover_after : n:int -> int option;
      (** [Some d]: each crashed pid is resurrected [d] ticks later
          (crash-recovery mode); [None]: crashes are permanent *)
}

val no_crashes : pattern

type spec = {
  algorithms : Target.t list;
  adversaries : adversary_spec list;
  patterns : pattern list;
  fault_rates : float list;  (** transient-fault probability per faultable op *)
  seeds : int64 array;
  max_ticks : int;  (** livelock guard per run *)
}

type cell = {
  c_algorithm : string;
  c_adversary : string;
  c_pattern : string;
  c_rate : float;
  c_runs : int;
  c_violations : int;  (** monitor violations + post-hoc soundness failures *)
  c_messages : string list;  (** one per violating run *)
  c_livelocks : int;  (** runs cut off by [max_ticks] *)
  c_injected : int;  (** transient faults actually injected *)
  c_crashed : int;  (** processes dead at end, summed over runs *)
  c_recovered : int;
  c_unnamed : int;  (** surviving unnamed processes, summed over runs *)
  c_mean_max_steps : float;  (** over completed (non-livelock, non-violating) runs *)
  c_baseline_max_steps : float;
  c_repros : Shrink.repro list;
      (** every monitor violation in the cell, auto-shrunk to a
          1-minimal replayable counterexample (see {!Shrink}) *)
}

type summary = {
  cells : cell list;
  total_runs : int;
  total_violations : int;
  total_livelocks : int;
  total_injected : int;
}

val run :
  ?progress:(done_:int -> total:int -> unit) ->
  ?obs:Renaming_obs.Obs.t ->
  spec ->
  summary
(** Runs every cell; a monitor violation (a raised exception included,
    as ["exception:<slot>"]) aborts only that run and is recorded in
    the cell, auto-shrunk.  Deterministic given [spec.seeds].  With
    [obs], campaign totals are recorded on the registry as the
    [chaos/cells], [chaos/runs], [chaos/violations], [chaos/livelocks]
    and [chaos/injected_faults] counters, and every run's monitor bumps
    the [refine/*] counters. *)

val to_json : summary -> Renaming_obs.Json.t
(** The [results/chaos.json] document: the totals, then one object per
    cell. *)

val pp : Format.formatter -> summary -> unit
