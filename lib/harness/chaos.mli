(** The standard chaos-campaign roster: the paper's algorithms wired
    into {!Renaming_faults.Campaign}.

    [lib/faults] is generic over instance builders (it sits below
    [lib/core] in the dependency order); this module supplies the
    concrete cross-product — every TAS-claiming algorithm, the adversary
    suite, the crash/recovery patterns and the default fault rates —
    used by [renaming chaos], [make chaos] and the test suite. *)

val algorithms : n:int -> Renaming_faults.Target.t list
(** loose-geometric, loose-clustered, combined-geometric, tight,
    adaptive, uniform-probing, linear-scan at [n] processes — all judged
    in {!Renaming_faults.Monitor.Tas} mode.  Building one needs [n ≥ 8]
    (the tight schedule's minimum). *)

val spec :
  ?n:int ->
  ?seed_count:int ->
  ?fault_rates:float list ->
  ?max_ticks:int ->
  unit ->
  Renaming_faults.Campaign.spec
(** The full deterministic campaign (defaults: n=48, 3 seeds, rates
    0/0.02/0.1) behind [make chaos]. *)
