(** Streaming summary statistics (a running mean, min and max) plus exact
    percentiles over retained samples. *)

type t

val create : unit -> t

(** [add t x] records one observation. *)
val add : t -> float -> unit

val add_int : t -> int -> unit

val count : t -> int
val mean : t -> float

val min : t -> float
val max : t -> float

(** [percentile t p] with [p] in [0,100]: exact percentile by sorting the
    retained samples (nearest-rank with linear interpolation).  Raises
    [Invalid_argument] if empty. *)
val percentile : t -> float -> float

val median : t -> float

(** All retained samples in insertion order. *)
(* lint: allow unused-export — test hook: the in-order probe counts the Longlived pins digest *)
val samples : t -> float array
