(** Arrays of test-and-set registers.

    A TAS register can be tested by many processes but won by exactly
    one; once set it stays set (the paper's §II-A model: "if a register
    is set, it remains set for the rest of the algorithm").  In the
    simulation an operation is atomic at the tick it is scheduled, so
    contention is resolved by the adversary's scheduling order — the
    first scheduled contender wins, which is exactly the power the
    adaptive adversary has over hardware TAS. *)

type t

val create : int -> t
(** [create size] makes [size] free registers. *)

val size : t -> int

val test_and_set : t -> idx:int -> pid:int -> bool
(** [test_and_set t ~idx ~pid] returns [true] iff [pid] won register
    [idx] (it was free).  Out-of-range indices raise
    [Invalid_argument]. *)

val is_set : t -> int -> bool

val owner : t -> int -> int option

val release : t -> idx:int -> pid:int -> bool
(** [release t ~idx ~pid] frees register [idx] if and only if [pid]
    currently owns it; returns whether it did.  The one-shot renaming
    algorithms never call this — it exists for the *long-lived*
    extension (related work [13]), where names are recycled. *)
