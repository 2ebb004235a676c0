(** Full loose renaming — Corollaries 7 and 9.

    Runs an almost-tight first phase (Lemma 6 or Lemma 8) on the
    namespace [0, n); processes still unnamed afterwards move to the
    reserved extension [n, n+ext) and finish there with the backup
    algorithm.  Extension sizes follow the corollaries:

    - {!Geometric}: [ext = 2n/(log log n)^ℓ] (Corollary 7),
    - {!Clustered}: [ext = 2n/(log n)^ℓ] (Corollary 9).

    Every surviving process obtains a name: the extension always offers
    at least as many names as Lemma 6/8 leaves unnamed w.h.p., and the
    backup's final sweep is deterministic.  Should an adversarial run
    exceed the extension's capacity (a low-probability event the
    corollaries bound), stragglers sweep the main namespace as a safety
    net — with [m > n] a free name always exists.

    The three phases are one probe plan,
    {!Renaming_plan.Plan.corollary}: the simulator runs it through
    {!Renaming_sched.Plan_exec}, and real domains can run the same plan
    through [Renaming_concurrent.Mc_run.execute] (on one domain, with
    the same per-pid names and steps as the simulator under a pid-order
    round robin). *)

type variant =
  | Geometric of { ell : int }  (** Corollary 7 on top of Lemma 6 *)
  | Clustered of { ell : int }  (** Corollary 9 on top of Lemma 8 *)

type config = { n : int; variant : variant }

val extension_size : config -> int

val namespace : config -> int
(** [n + extension_size]. *)

val predicted_steps : config -> float
(** The corollary's step bound: [O((log log n)^ℓ)] respectively
    [O((log log n)^2)], with explicit constants. *)

val instance :
  ?obs:Renaming_obs.Obs.t ->
  config ->
  stream:Renaming_rng.Stream.t ->
  Renaming_sched.Executor.instance
(** With [obs], the plan's telemetry has three stages: the first phase
    records Lemma 6's or Lemma 8's counters, spans and give-up instant
    ({!Loose_geometric.stage}, {!Loose_clustered.stage}), the extension
    phase is one per-pid ["backup"] span with [size] = [ext], and the
    rare full fallback a ["main-sweep"] instant. *)

val run :
  ?obs:Renaming_obs.Obs.t ->
  ?adversary:Renaming_sched.Adversary.t ->
  config ->
  seed:int64 ->
  Renaming_sched.Report.t
