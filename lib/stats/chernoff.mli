(** Lemma 3's balls-into-bins bound (proved from the Chernoff bounds of
    Lemma 1), as an executable calculator: the Lemma 3 experiment sets
    its analytic column and its constant [c] from it. *)

val lemma3_failure_bound : n:int -> c:float -> ell:float -> float
(** The bound of Lemma 3: with [2c·log n] balls into [2·log n] bins and
    [c ≥ max(ln 2, 2ℓ+2)], [P(≥ log n empty bins) ≤ (2 / e^{c-1+2/e^c})^{log n}],
    which the lemma shows is below [1/n^ℓ]. *)

val lemma3_min_c : ell:float -> float
(** Smallest [c] the lemma's hypothesis allows for a given [ℓ]. *)
