(** The Chernoff bounds of Lemma 1, as executable calculators.

    These are used by tests to cross-check that the empirical tail
    frequencies observed in simulation are no worse than the analytic
    bounds the paper's proofs rely on, and by {!Lemma3} style
    computations (empty-bins probability). *)

(* lint: allow unused-export — unit-tested, no caller yet: Chernoff bound *)
val upper : mu:float -> delta:float -> float
(** [upper ~mu ~delta] bounds [P(X >= (1+delta)·mu)] per Lemma 1(1)/(2):
    [exp(-mu·delta²/3)] for [delta ≤ 1], [exp(-mu·delta/3)] for
    [delta > 1].  Raises [Invalid_argument] for negative [delta]. *)

(* lint: allow unused-export — unit-tested, no caller yet: empty-bin expectation *)
val empty_bins_expected : balls:int -> bins:int -> float
(** Expected number of empty bins after throwing [balls] balls i.u.r.
    into [bins] bins: [bins·(1 - 1/bins)^balls]. *)

val lemma3_failure_bound : n:int -> c:float -> ell:float -> float
(** The bound of Lemma 3: with [2c·log n] balls into [2·log n] bins and
    [c ≥ max(ln 2, 2ℓ+2)], [P(≥ log n empty bins) ≤ (2 / e^{c-1+2/e^c})^{log n}],
    which the lemma shows is below [1/n^ℓ]. *)

val lemma3_min_c : ell:float -> float
(** Smallest [c] the lemma's hypothesis allows for a given [ℓ]. *)
