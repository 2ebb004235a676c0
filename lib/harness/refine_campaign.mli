(** The refinement harness behind [renaming refine] / [make refine]:
    every backend's observable trace checked against the one centralized
    {!Renaming_refine.Spec}, plus the seeded spec-divergence self-test.

    Six stages over the four backends:

    - {b executor} (three legs): the tier-1 chaos cross-product, a
      bounded-model-checking subset (crashes included — systematic
      coverage of the spec's crash-abandons-claims rule), and the clean
      fuzz roster — every run under {!Renaming_faults.Monitor}, which
      checks it against the spec; the [refine/*] counters total each
      leg;
    - {b service}: lease-service churn observed through the audit tap
      ({!Renaming_refine.Lease_adapter});
    - {b router}: sharded churn with slice handoffs, stalls and
      mid-transit crashes;
    - {b net}: the same router over the unreliable transport —
      retransmits, dedup replays and fenced ghosts never reach the
      audit tap, so they refine to stutters by construction.

    The mutant self-test fuzzes [mutant-refine-regrant] from
    {!Fuzz_roster.mutants} and demands the post-reclaim double grant be
    caught, ddmin-shrunk and round-tripped through the [.repro]
    format.

    Fully deterministic: every stage's seeds are pinned. *)

type backend_report = {
  b_name : string;  (** stage name, e.g. ["executor-chaos"] *)
  b_backend : string;  (** ["executor"] / ["service"] / ["router"] / ["net"] *)
  b_runs : int;  (** traces checked *)
  b_events : int;  (** adapted events fed to the spec *)
  b_steps : int;
  b_stutters : int;
  b_violations : int;  (** must be 0 *)
  b_first : string option;  (** first inexplicable event, rendered *)
}

type mutant_report = {
  m_name : string;
  m_found : bool;
  m_kind : string option;  (** the ["refine:..."] violation kind *)
  m_shrunk : bool;
  m_choices : int;  (** length of the 1-minimal prefix *)
  m_roundtrip : bool;  (** artifact survives [repro_to_string]/[of_string] *)
  m_repro : Renaming_faults.Shrink.repro option;
}

type summary = { smoke : bool; backends : backend_report list; mutant : mutant_report }

val run :
  ?obs:Renaming_obs.Obs.t ->
  ?progress:(string -> unit) ->
  ?smoke:bool ->
  unit ->
  summary
(** [smoke] (default [false]) trims every stage to a seconds-long
    subset.  [progress] is called with each stage name as it starts.
    With [obs], the shared [refine/events], [refine/stutters] and
    [refine/violations] counters accumulate across all stages (plus the
    usual per-campaign counters of the underlying runners). *)

val ok : summary -> bool
(** Zero violations on every backend {e and} the mutant caught, shrunk
    and round-tripped. *)

val mutant_ok : mutant_report -> bool

val to_json : summary -> string
(** The [results/refine.json] payload (schema [renaming.refine/1]). *)

val pp : Format.formatter -> summary -> unit
