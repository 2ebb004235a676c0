(** Streaming summary statistics (Welford's algorithm) plus exact
    percentiles over retained samples. *)

type t

val create : unit -> t

(** [add t x] records one observation. *)
val add : t -> float -> unit

val add_int : t -> int -> unit

val count : t -> int
val mean : t -> float
(* lint: allow unused-export — unit-tested, no caller yet: summary statistic *)
val variance : t -> float
(** Sample variance (n-1 denominator); 0 for fewer than two samples. *)

val min : t -> float
val max : t -> float

(** [percentile t p] with [p] in [0,100]: exact percentile by sorting the
    retained samples (nearest-rank with linear interpolation).  Raises
    [Invalid_argument] if empty. *)
val percentile : t -> float -> float

val median : t -> float

(** All retained samples in insertion order. *)
(* lint: allow unused-export — test hook: the pinned probe counts *)
val samples : t -> float array
