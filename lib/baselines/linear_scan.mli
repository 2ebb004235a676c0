(** The deterministic baseline: scan names [0, 1, 2, …] until one is
    won.  Solves tight renaming with step complexity Θ(n) — the
    deterministic lower bound the paper cites ([9]: deterministic
    renaming costs Ω(n), exponentially worse than randomized).  Its
    measured curve is the yardstick the randomized algorithms are
    compared against in T8. *)

type config = { n : int; m : int }

val instance : config -> Renaming_sched.Executor.instance

val run :
  ?adversary:Renaming_sched.Adversary.t -> config -> Renaming_sched.Report.t
