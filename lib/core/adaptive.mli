(** Adaptive loose renaming: the participation count is unknown.

    Section IV notes that "one can also apply the framework of [8] to
    transform our algorithms into adaptive algorithms when the number of
    active processes ... is not known in advance", at the cost of a
    namespace [O((1+ε)·k)].  This module implements the straightforward
    doubling version of that transform:

    the namespace is an infinite sequence of level blocks, block [j]
    holding [⌈(1+ε)·2^j⌉] names.  A process works level by level: at
    level [j] it assumes the estimate [k ≈ 2^j] and runs the geometric-
    rounds algorithm of Lemma 6 (budget [(log log 2^j)^ℓ] steps) inside
    block [j]; if still unnamed it moves on.  Once [2^j ≥ k] the block
    offers at least [(1+ε)k] names to at most [k] contenders and the
    Lemma 6 analysis applies, so w.h.p. everyone is named within
    [O(log k)] levels and the names used stay within
    [O((1+ε)·k)] (geometric series).  Step complexity is
    [O(log k · (log log k)^ℓ)] — the paper's observation that the
    transform "would not result in an improvement" over [8] made
    quantitative (experiment T11).

    A deterministic sweep of the level-[⌈log₂ k⌉+2] block, and then of
    every block before it, guarantees unconditional termination for
    every surviving process.

    The whole schedule is one probe plan,
    {!Renaming_plan.Plan.adaptive}: one [Probe] per level and the two
    closing [Sweep]s.  The simulator runs it through
    {!Renaming_sched.Plan_exec}, and real domains can run the same plan
    through [Renaming_concurrent.Mc_run.execute] (on one domain, with
    the same per-pid names and steps as the simulator under a pid-order
    round robin). *)

type config = {
  k : int;  (** actual number of participants (hidden from the processes) *)
  ell : int;
  epsilon : float;  (** namespace slack per level, default 1.0 *)
}

val make_config : ?ell:int -> ?epsilon:float -> k:int -> unit -> config

val namespace : config -> int
(** Total names provisioned across all levels — [O((1+ε)k)]. *)

val instance :
  config -> stream:Renaming_rng.Stream.t -> Renaming_sched.Executor.instance

val run :
  ?adversary:Renaming_sched.Adversary.t ->
  config ->
  seed:int64 ->
  Renaming_sched.Report.t

val max_name_used : Renaming_sched.Report.t -> int
(** Largest name actually claimed (+1 gives the effective namespace the
    adaptive run consumed). *)
