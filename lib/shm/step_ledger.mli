(** Per-process step accounting.

    The paper's complexity measure is *step complexity*: the maximum
    number of shared-memory accesses performed by any process.  Every
    shared-memory operation executed by the scheduler records one step
    here. *)

type t

val create : processes:int -> t

val record : t -> pid:int -> unit

val steps_of : t -> pid:int -> int

val total : t -> int
(** Total step complexity (sum over processes), the "total step
    complexity" measure used for e.g. the O(n log³ n) bound of [4]. *)

val max_steps : t -> int
(** Step complexity in the paper's sense: max over processes. *)

val summary : t -> Renaming_stats.Summary.t
(** Distribution of per-process step counts. *)
