(** The verification targets both the model-checking and the fuzzing
    roster run, each defined once: {!Mcheck_roster} and {!Fuzz_roster}
    share these values, so a repro artifact's [(algorithm, n)] names one
    instance whichever checker wrote it ({!Replay.find}). *)

val loose_geometric_n4 : Renaming_faults.Target.t
(** Lemma 6 probing with [ℓ = 2]. *)

val uniform_probing_n3 : Renaming_faults.Target.t
(** At most two probes: short traces, and the sweep after the probe
    phase still guarantees termination. *)

val linear_scan_n4 : Renaming_faults.Target.t

val lease_handoff_n4 : Renaming_faults.Target.t
(** {!Renaming_service.Handoff}: names are guarded by aux-register
    locks, so the returned name is the only observable grant
    ({!Renaming_faults.Monitor.Returns}). *)

val shard_handoff_n4 : Renaming_faults.Target.t
(** {!Renaming_service.Shard_handoff}, judged like {!lease_handoff_n4}. *)

val net_dedup_n4 : Renaming_faults.Target.t
(** {!Renaming_service.Net_dedup}, judged like {!lease_handoff_n4}. *)

val refine_grant_n2 : Renaming_faults.Target.t
(** {!Renaming_refine.Grant_model}: it announces its own observable
    events ({!Renaming_faults.Monitor.Announce}). *)
