(** Parameter schedules for the tight-renaming algorithm of Section III.

    The namespace [0, n) is covered by τ-registers holding [τ = log n]
    names each; their TAS bits are grouped into per-round clusters.  Two
    schedules are provided:

    - {!Paper_literal}: Definition 2 verbatim — cluster [i] has
      [c_i = n/(2c)^i] TAS bits, i.e. [b_i = c_i / (2 log n)] blocks,
      and [R = (log n − log log n − 1)/(log c + 1)] rounds.  As
      documented in DESIGN.md §3, these clusters jointly cover only
      [≈ n/(2(2c−1))] names, so most processes must fall through to the
      reserve.

    - {!Mass_conserving}: the schedule the paper's analysis supports.
      Expected actives shrink by [γ = 1 − 1/(4c)] per round; round [i]
      gets [b_i = ⌈ρ_i / (4c log n)⌉] blocks so each block still
      receives [≈ 4c log n] requests in expectation (the regime of
      Lemmas 3 and 4), and the clusters jointly cover all but
      [O(log n)] names.

    Names not covered by any cluster form the *reserve*, acquired by
    direct TAS scan; with the mass-conserving schedule only [O(log n)]
    processes w.h.p. ever reach it. *)

type policy = Paper_literal | Mass_conserving

type block = {
  tau_id : int;  (** index into the τ-register array *)
  name_base : int;  (** first of its [tau] names in the namespace *)
}

type round = {
  index : int;  (** 1-based round number *)
  first_tau : int;  (** τ-registers [first_tau .. first_tau+blocks-1] *)
  blocks : int;
}

type t = {
  n : int;
  c : int;  (** the constant of Lemma 3 (≥ max(ln 2, 2ℓ+2)) *)
  policy : policy;
  log_n : int;  (** ⌈log₂ n⌉ *)
  tau : int;  (** names per register = log_n *)
  width : int;  (** device bits per register = 2·log_n *)
  rounds : round array;
  total_taus : int;
  reserve_base : int;  (** names [reserve_base, n) are the reserve *)
}

val make : ?c:int -> policy:policy -> n:int -> unit -> t
(** [c] defaults to 4 (the smallest even integer satisfying Lemma 3's
    hypothesis for ℓ = 1).  Requires [n ≥ 8].  Raises
    [Invalid_argument] otherwise. *)

val round_count : t -> int

val reserve_size : t -> int

val cluster_name_coverage : t -> int
(** Names covered by all clusters combined = [total_taus · tau]. *)

val tau_geometry : t -> (int * int) array
(** For each τ-register id, its [(name_base, tau)] slice; slices are
    disjoint and lie below [reserve_base]. *)

val block_of_tau : t -> int -> block

val pp : Format.formatter -> t -> unit
