(** Convenience wrapper: tight renaming through a sorting network, the
    baseline of Alistarh et al. [7] instantiated with practical networks
    (no AKS exists to instantiate).  Processes enter on distinct wires
    drawn at random from the initial namespace [0, width); by the 0-1
    principle they exit on wires [0, n), i.e. a strong (order-oblivious)
    tight renaming with step complexity = network depth = Θ(log² n) for
    bitonic/odd-even-merge. *)

type network_kind = Bitonic | Odd_even_merge | Odd_even_transposition

val run :
  ?adversary:Renaming_sched.Adversary.t ->
  kind:network_kind ->
  n:int ->
  width:int ->
  seed:int64 ->
  unit ->
  Renaming_sched.Report.t
(** [n] processes entering on distinct uniformly random wires of a
    fresh width-[width] network; the namespace is the network's width,
    which for [Bitonic] is [width] rounded up to a power of two. *)
