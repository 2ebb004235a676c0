(** The standard bounded-model-checking roster: small instances of the
    core and baseline algorithms wired into {!Renaming_mcheck.Mcheck}.

    Exhaustive exploration only scales to tiny instances, so every entry
    pins a small [n], a fixed seed and per-entry bounds tuned so the
    whole roster finishes in seconds.  Entry names encode the
    configuration (e.g. ["uniform-probing-n3"] probes at most twice) and
    are what repro artifacts record, so {!Replay.find} can rebuild the
    exact instance for replay. *)

type entry = {
  e_target : Renaming_faults.Target.t;
      (** its [name] is the unique roster key that goes into repro
          artifacts *)
  e_seed : int64;
  e_bounds : Renaming_mcheck.Mcheck.bounds;
  e_baseline : int option;
      (** the schedule count of the pre-DPOR sleep-set DFS, frozen: that
          pruning is gone, so it cannot be re-measured.  The denominator
          of the DPOR reduction ratio; [None] for entries that were
          infeasible before DPOR (the n5 configurations) *)
}

val roster : unit -> entry list
(** Every entry: schedule-only exploration of loose-geometric (n=4),
    uniform-probing (n=3), linear-scan (n=3/4), tight (n=8, its
    minimum) and the lease/shard handoff protocols up to n=5, plus
    crash/recovery and transient-fault variants with one injection
    each. *)

val tier1 : unit -> entry list
(** The fast subset exercised on every [dune runtest] — since the DPOR
    engine it includes the n4 handoff entries and [shard-handoff-n5]. *)

val run_entry : ?obs:Renaming_obs.Obs.t -> entry -> Renaming_mcheck.Mcheck.stats
(** Explores the entry with {!Renaming_mcheck.Mcheck.check}; its frozen
    [e_baseline] is threaded into the stats for reduction-ratio
    reporting. *)
