(** A deterministic binary min-heap keyed by [(time, insertion order)].

    Both the lease table (expiry queue) and the churn driver (event
    queue) need a priority queue whose pop order is a pure function of
    the push sequence: ties on [time] are broken by insertion order, so
    two runs with the same inputs drain in byte-identical order. *)

type 'a t

val create : unit -> 'a t

val push : 'a t -> time:float -> 'a -> unit

val pop : 'a t -> (float * 'a) option
(** Smallest [(time, seq)] first; [None] when empty. *)

val top_time : 'a t -> float
(** The smallest entry's time; [infinity] when empty.  Allocates
    nothing, so hot loops can poll it. *)

val due : 'a t -> now:float -> bool
(** [due t ~now] is true iff the smallest entry's time is [<= now]. *)

val size : 'a t -> int

val is_empty : 'a t -> bool

val compact : 'a t -> live:(time:float -> 'a -> bool) -> unit
(** Drop every entry for which [live] is false and re-heapify in place.
    Surviving entries keep their [(time, seq)] keys, so their relative
    pop order is exactly what it would have been without compaction.
    Owners using lazy deletion (the lease table) call this when dead
    entries dominate, bounding heap memory under long churn; the
    backing array is shrunk when mostly empty. *)
