(** Probe plans: the schedule of each probing algorithm, written once.

    A probing process's life is a sequence of segments.  [Probe] makes
    [count] test-and-set probes on registers drawn uniformly from
    [\[base, base+size)]; [Sweep] test-and-sets [base], [base+1], ... in
    order.  The process stops at its first win, or unnamed once the last
    segment is spent.  A segment with [count <= 0] or [size <= 0] is
    skipped.

    A plan only describes; the engines run it.  The simulator runs it as
    a program ([Renaming_sched.Plan_exec]), and real domains run it in
    [Renaming_concurrent.Mc_run].  A probe draws its register as
    [base + Sample.uniform_int rng size] on both, so a process with the
    same stream makes the same probes on either engine. *)

type segment =
  | Probe of { base : int; size : int; count : int }
  | Sweep of { base : int; size : int }

type t = segment array

val loose_geometric : n:int -> ell:int -> t
(** Lemma 6: [ℓ·⌈log log log n⌉] rounds over the namespace [\[0, n)];
    round [i] (1-based, segment [i-1]) is [2^i] probes. *)

val loose_clustered : ?boost:int -> n:int -> ell:int -> unit -> t
(** Lemma 8: one phase per cluster, [⌈log log n⌉] phases of
    [boost·2ℓ·⌈log log n⌉] probes each.  Phase [j] (0-based) probes
    cluster [j], which holds [n/2^(j+1)] registers; the last cluster
    absorbs the tail, so the clusters cover [\[0, n)] (see the .ml).
    [boost] defaults to 1. *)

val uniform_probing : ?max_probes:int -> m:int -> unit -> t
(** The naive baseline: [max_probes] (default [4m]) probes over
    [\[0, m)], then a sweep of [\[0, m)]. *)

val linear_scan : first:int -> count:int -> t
(** The deterministic baseline, and the corollaries' last resort: one
    sweep of [\[first, first+count)]. *)

val corollary : first:t -> n:int -> ext:int -> t
(** Corollaries 7 and 9's full loose renaming: the first-phase plan
    [first] ({!loose_geometric} or {!loose_clustered}) on [\[0, n)], then
    the backup phase on the reserved extension [\[n, n+ext)], then a
    sweep of [\[0, n)], the last resort for the stragglers that outnumber
    the extension (with [ext >= 1] a free name then exists).

    The backup phase is doubling batches of [1, 2, 4, ...] probes while
    a batch stays within [4·ext], then a sweep of the extension.  The
    paper delegates the [o(n)] stragglers to the O(log log n)
    loose-renaming algorithm of Alistarh, Aspnes, Giakkoupis and Woelfel
    (PODC'13, reference [8]) on a reserved namespace [n+1 … n+2u].  This
    is a shape-preserving stand-in (documented in DESIGN.md §2).  With
    [u] stragglers and [2u] fresh names, at least half the extension is
    always free, so every probe succeeds with probability ≥ 1/2 and
    batch doubling drives the unnamed count down double-exponentially —
    the same decay the AAGW analysis provides.  The extension's sweep
    names every straggler unconditionally as long as at most [ext] of
    them reach it.  With [first = \[||\]] and [n = 0] the plan is the
    backup phase alone on [\[0, ext)].  Raises [Invalid_argument] if
    [ext < 1]. *)

val adaptive : k:int -> ell:int -> epsilon:float -> t
(** The §IV adaptive transform for an unknown participation count [k]:
    level [j] (for [j] below [⌈log₂ k⌉ + 3]) is one [Probe] of Lemma 6's
    budget under the estimate [2^j] over its own block of
    [max 2 ⌈(1+ε)·2^j⌉] names, the blocks laid out back to back from 0;
    then a [Sweep] of the last block and a [Sweep] of every block
    before it.  A level whose budget is 0 is an empty segment. *)

val probe_budget : t -> int
(** The probes a plan makes before its sweeps: the sum of its [Probe]
    counts. *)
