(** Experiment T13 — cross-checking the simulator against real OCaml 5
    multicore execution of the same algorithms. *)

val t13 : Runcfg.scale -> Table.t

val f4 : Runcfg.scale -> Table.t
(** Experiment F4 — the loose-renaming lemmas at a million-plus
    processes, on one-domain {!Renaming_concurrent.Mc_run}. *)
