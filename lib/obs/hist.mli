(** Fixed-bucket mergeable histograms.

    Bucket bounds are fixed at creation (default: powers of two up to
    2^20), so two histograms with the same bounds merge by element-wise
    addition — [merge] is associative and commutative, and conserves
    counts, which is what lets per-pid, per-domain and per-run
    distributions combine into the snapshots the exporters write.  For
    exact value-keyed histograms use {!Renaming_stats.Histogram}. *)

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

val merge : t -> t -> t
(** Fresh histogram with element-wise summed counts; raises
    [Invalid_argument] when the bucket bounds differ. *)
