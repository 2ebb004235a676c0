(** Bitonic sorting network (Batcher 1968), min-to-top comparators only.

    Uses the mirrored-first-layer formulation so that no descending
    comparators are needed: the merge stage for block size [2^s] starts
    with a mirror layer [(i, i xor (2^s − 1))] followed by half-cleaners
    of geometrically shrinking gap.  Depth is
    [log n (log n + 1) / 2]; widths must be powers of two. *)

val network : width:int -> Network.t
(** Raises [Invalid_argument] unless [width] is a power of two ≥ 2. *)

(* lint: allow unused-export — reference: the closed-form depth of a bitonic network *)
val depth_formula : width:int -> int
(** [log₂ w · (log₂ w + 1) / 2], for cross-checking. *)

val next_pow2 : int -> int
