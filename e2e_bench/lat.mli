(** Non-allocating latency recorder.

    A {!Renaming_obs.Hist} with log-linear nanosecond bounds: 16 ns,
    then 16 sub-buckets per power of two up to 2^34 ns (~17 s), so every
    bucket is at most 1/16 of its value wide.  Recording is one binary
    search over fixed bounds and allocates nothing; recorders with the
    same bounds merge by addition. *)

type t = Renaming_obs.Hist.t

val bounds : int array

val create : unit -> t

val record : t -> int -> unit
(** Record one non-negative duration (ns). *)

val count : t -> int
val sum : t -> int

val percentile : t -> float -> float
(** [percentile t p], [p] in [\[0, 100\]]: the nearest-rank sample,
    located to its bucket and interpolated linearly by rank inside it,
    so the estimate lies in the same bucket as the exact value.  [nan]
    when empty. *)
