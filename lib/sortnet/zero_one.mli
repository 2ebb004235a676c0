(** Sorting-network verification via the 0-1 principle.

    [Network.sorts] is exhaustive and thus limited to small widths; this
    module adds a randomized refutation check for large networks:
    sampling 0-1 vectors and integer permutations.  A failed sample is a
    definite counterexample; passing is evidence only (use the
    exhaustive check in unit tests where feasible). *)

type result = Verified_exhaustive | Passed_samples of int | Failed of int array

(* lint: allow unused-export — reference: the 0-1 principle each network obeys *)
val check :
  ?samples:int -> ?exhaustive_limit:int -> rng:Renaming_rng.Xoshiro.t -> Network.t -> result
(** Exhaustive when [width ≤ exhaustive_limit] (default 18), otherwise
    [samples] (default 1000) random 0-1 inputs plus as many random
    permutations.  [Failed input] carries a counterexample. *)
