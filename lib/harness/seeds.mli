(** The fixed seed list all experiments replicate over, so every number
    in EXPERIMENTS.md is reproducible bit-for-bit. *)

val take : int -> int64 array
(** First [k] seeds (cycling if [k] exceeds the list). *)
