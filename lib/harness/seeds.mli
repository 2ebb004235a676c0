(** The fixed seed list all experiments replicate over, so every number
    in EXPERIMENTS.md is reproducible bit-for-bit. *)

(* lint: allow unused-export — test hook: the cycle length of Seeds.take *)
val default : int64 array

val take : int -> int64 array
(** First [k] seeds (cycling if [k] exceeds the list). *)
