(** Fixed-bucket histograms.

    Bucket bounds are fixed at creation (default: powers of two up to
    2^20); the exporters write a histogram's bucket counts, count, sum
    and maximum.  For exact value-keyed histograms use
    {!Renaming_stats.Histogram}. *)

type t

val create : ?bounds:int array -> unit -> t
(** [bounds] must be strictly increasing and non-negative; an overflow
    bucket above the last bound is added automatically. *)

val observe : t -> int -> unit

val count : t -> int
(** Total observations. *)

val sum : t -> int
val max_value : t -> int
(** Largest observed value; -1 when empty. *)

val mean : t -> float
(** [nan] when empty. *)

val bounds : t -> int array
val counts : t -> int array
(** Per-bucket counts, one more entry than [bounds] (the overflow
    bucket). *)

val buckets : t -> (string * int) list
(** Labelled per-bucket counts, e.g. [("<=8", 3); ("9..16", 1); ...]. *)
