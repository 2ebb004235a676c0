(** Arrays of test-and-set registers.

    A TAS register can be tested by many processes but won by exactly
    one; once set it stays set (the paper's §II-A model: "if a register
    is set, it remains set for the rest of the algorithm").  In the
    simulation an operation is atomic at the tick it is scheduled, so
    contention is resolved by the adversary's scheduling order — the
    first scheduled contender wins, which is exactly the power the
    adaptive adversary has over hardware TAS. *)

type t

type cell = Free | Won of int  (** winner's process id *)

val create : int -> t
(** [create size] makes [size] free registers. *)

val size : t -> int

val test_and_set : t -> idx:int -> pid:int -> bool
(** [test_and_set t ~idx ~pid] returns [true] iff [pid] won register
    [idx] (it was free).  Out-of-range indices raise
    [Invalid_argument]. *)

(* lint: allow unused-export — test hook: observes one register *)
val get : t -> int -> cell

val is_set : t -> int -> bool

val owner : t -> int -> int option

(* lint: allow unused-export — test hook: observes the array *)
val set_count : t -> int
(** Number of registers currently won; O(1). *)

(* lint: allow unused-export — test hook: observes the array *)
val free_count : t -> int

val release : t -> idx:int -> pid:int -> bool
(** [release t ~idx ~pid] frees register [idx] if and only if [pid]
    currently owns it; returns whether it did.  The one-shot renaming
    algorithms never call this — it exists for the *long-lived*
    extension (related work [13]), where names are recycled. *)

(* lint: allow unused-export — test hook: clears the array *)
val reset : t -> unit
(** Frees every register (between experiment repetitions). *)

val iter_set : t -> f:(idx:int -> pid:int -> unit) -> unit
(** Iterates over won registers in index order. *)
