(** Experiment scales.

    [Quick] keeps the whole suite under a couple of minutes (`make
    tables`); [Full] is the EXPERIMENTS.md configuration (`make
    tables-full`).  Scale only changes instance sizes and replication
    counts, never algorithm parameters. *)

type scale = Quick | Full

val scale_name : scale -> string

val sweep_ns : scale -> int array
(** The doubling sweep of process counts for scaling experiments. *)

val big_n : scale -> int
(** The single large instance used by decay/trade-off experiments. *)

val trials : scale -> int
(** Seeds per configuration. *)

val whp_trials : scale -> int
(** Trials for the direct probabilistic checks (Lemma 3). *)
