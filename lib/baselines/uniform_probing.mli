(** The naive randomized baseline: probe uniform random registers until
    one is won (the strategy underlying the early loose-renaming work,
    e.g. Panconesi et al. [11], stripped of its read/write TAS
    simulation).

    With [m = (1+ε)n] the success probability per probe never drops
    below [ε/(1+ε)], so per-process steps are geometric and the *maximum*
    over [n] processes concentrates around [log n / log(1+ε)] — visibly
    worse than the paper's [O((log log n)^ℓ)] algorithms, which is the
    comparison T8/F1 draws.  With [m = n] the tail degenerates towards
    coupon-collector behaviour; a deterministic sweep after [max_probes]
    failures keeps termination unconditional. *)

type config = {
  n : int;  (** processes *)
  m : int;  (** namespace size, [m ≥ n] *)
  plan : Renaming_plan.Plan.t;  (** {!Renaming_plan.Plan.uniform_probing} over [m] *)
}

val make_config : ?max_probes:int -> n:int -> m:int -> unit -> config
(** [max_probes], the random probes before the deterministic sweep,
    defaults to [4·m]. *)

val instance :
  config -> stream:Renaming_rng.Stream.t -> Renaming_sched.Executor.instance

val run :
  ?adversary:Renaming_sched.Adversary.t ->
  config ->
  seed:int64 ->
  Renaming_sched.Report.t
