(** Coverage-guided schedule fuzzing: the campaign runner behind
    [renaming fuzz] / [make fuzz].

    Each target is fuzzed independently with a fixed instance seed
    (derived from the campaign seed and the target name — algorithm coin
    flips are pinned; the schedule is the only nondeterminism the fuzzer
    owns).  Iterations alternate two generators:

    - {b PCT rounds}: a fresh {!Pct} adversary per run, sweeping depths
      [1..depth] and alternating the plain and crash-spending variants,
      with the expected run length [k] estimated from a fair round-robin
      baseline run;
    - {b mutation rounds} (every 4th iteration, once the corpus is
      non-empty): pick a corpus prefix, apply 1–3 structural edits
      ({!Corpus.mutate}), replay through the permissive prefix-directed
      executor.

    Every run executes under the online safety monitor and a fresh
    {!Coverage} collector; schedules producing new conflict edges are
    admitted to the corpus ({!Corpus.observe}).  The first violation per
    target ends that target's campaign: the failing decision sequence is
    ddmin-shrunk through {!Renaming_faults.Shrink} into a replayable
    repro.

    Determinism: given the same seed, targets and budgets (and no
    wall-clock budget), the whole campaign — iteration counts, coverage
    curves, violations, shrunk repros — is a pure function of its
    inputs. *)

type target = {
  fz_target : Renaming_faults.Target.t;
  fz_allow_faults : bool;
      (** permit [Fault] mutations — only sound when the target's
          programs route namespace traffic through the fault-aware
          retry primitives *)
  fz_allow_crashes : bool;
      (** permit crash/recovery injection (PCT crash variant and
          corpus crash mutations) *)
  fz_tau_cadence : int;  (** τ-device cadence, 1 for device-free targets *)
  fz_max_ticks : int;  (** livelock guard per run *)
  fz_expect_violation : bool;
      (** seeded-mutant self-test entry: the fuzzer {e must} find a
          violation here, and a clean result is a campaign failure *)
}

type violation = {
  v_kind : string;
  v_message : string;
  v_iteration : int;  (** [-1] means the round-robin baseline run *)
  v_mode : string;  (** ["baseline"], ["pct-d<k>"], ["pct-crash-d<k>"], ["mutation"] *)
  v_repro : Renaming_faults.Shrink.repro option;
      (** the ddmin-shrunk replayable artifact; [None] only if shrinking
          could not reproduce the failure *)
}

type growth_point = { g_iteration : int; g_edges : int }

type target_result = {
  r_target : string;
  r_n : int;
  r_expect_violation : bool;
  r_iterations : int;  (** executed fuzz iterations (baseline excluded) *)
  r_livelocks : int;
  r_corpus_size : int;
  r_edges : int;  (** distinct coverage edges seen *)
  r_growth : growth_point list;
      (** the coverage-growth curve: one point per iteration that grew
          the edge set, ascending *)
  r_violations : violation list;
}

type summary = {
  s_seed : int64;
  s_depth : int;
  s_iteration_budget : int;
  s_stopped_early : bool;  (** the wall-clock budget cut the campaign short *)
  s_results : target_result list;
}

val run :
  ?clock:Renaming_clock.Clock.t ->
  ?depth:int ->
  ?max_seconds:float ->
  ?progress:(target:string -> done_:int -> total:int -> unit) ->
  ?obs:Renaming_obs.Obs.t ->
  seed:int64 ->
  iterations:int ->
  target list ->
  summary
(** [depth] (default 3) is the maximum PCT depth swept.  [max_seconds]
    bounds campaign wall time as measured on [clock] (default
    {!Renaming_clock.Clock.none}, under which the bound never trips —
    pass a real clock from the [bin/] edge to make it effective).

    With [obs], campaign totals are accumulated onto the
    [fuzz/targets], [fuzz/iterations], [fuzz/livelocks],
    [fuzz/corpus_entries], [fuzz/coverage_edges] and [fuzz/violations]
    counters, and every fuzzed run's monitor bumps the [refine/*]
    counters; the fuzzing loop itself never reads [obs], so results are
    identical either way. *)

val ok : summary -> bool
(** Every mutant target found (with a shrunk repro for each violation)
    {e and} every clean target violation-free. *)

val repros : summary -> Renaming_faults.Shrink.repro list
(** All shrunk artifacts, in target order. *)

val to_json : summary -> Renaming_obs.Json.t
(** The [results/fuzz.json] document; schema in [docs/fuzzing.md]. *)

val pp : Format.formatter -> summary -> unit
