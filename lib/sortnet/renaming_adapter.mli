(** Sorting networks as renaming protocols — the construction of
    Alistarh et al. [7] that the paper positions itself against.

    Every comparator becomes a one-shot test-and-set: a process entering
    the comparator wins the TAS and leaves on the top wire, or loses and
    leaves on the bottom wire.  By the 0-1 principle (processes as 0s,
    empty wires as 1s) the [k] participants of a *sorting* network exit
    on exactly the top [k] wires, i.e. the construction solves strong
    adaptive tight renaming; its step complexity is the number of
    comparators on the path — at most the network depth.

    With an AKS network this gives the [O(log k)] algorithm of [7]; with
    the practical bitonic/odd-even networks the depth — and hence step
    complexity — is [Θ(log² n)], which is the gap the τ-register
    algorithm closes. *)

type t

val prepare : Network.t -> t
(** Precomputes the per-layer wire→comparator maps and assigns one
    auxiliary TAS bit per comparator. *)

(* lint: allow unused-export — test hook: one auxiliary TAS bit per comparator *)
val aux_bits : t -> int
(** Number of auxiliary TAS bits required (= network size). *)

val run :
  t ->
  entries:int array ->
  ?adversary:Renaming_sched.Adversary.t ->
  unit ->
  Renaming_sched.Report.t
(** One process per entry wire (entries must be distinct — they are the
    processes' distinct original names; a repeated entry raises
    [Invalid_argument]).  Namespace = network width. *)
