(** Transient-fault injectors for {!Renaming_sched.Executor.run}'s
    [inject] hook.

    Every injector here only ever faults {!Renaming_sched.Op.faultable}
    operations (namespace/auxiliary TAS and reads), so recovery sweeps,
    τ-register traffic and backoff yields are never eaten — see
    docs/fault_model.md for the rationale.  Determinism comes from the
    caller-supplied RNG: same seed, same faults. *)

type t = time:int -> pid:int -> op:Renaming_sched.Op.t -> bool

val bernoulli : rate:float -> rng:Renaming_rng.Xoshiro.t -> t
(** Each faultable operation faults independently with probability
    [rate]. *)

val counting : t -> t * (unit -> int)
(** Wraps an injector with a hit counter (for reports). *)
