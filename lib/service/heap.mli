(** A deterministic binary min-heap keyed by [(time, push sequence)].

    The lease table (expiry queue), the transport (messages in flight)
    and the churn driver (event queue) need a priority queue whose take
    order is a pure function of the push sequence: ties on [time] are
    broken by push order, so two runs with the same inputs drain in
    byte-identical order.

    Each entry is a time, a push sequence number, an [aux] int and a
    value, kept as four columns (a [Float.Array] of times, two [int]
    arrays and a value array).  Once the columns have grown, {!push}
    and {!take} allocate nothing themselves.

    The build compiles with [-opaque], so a float returned across a
    module boundary is boxed (two words).  {!top_time} is such a return;
    a loop that runs per message or per event asks {!due},
    {!top_after} or {!top_le} instead, which answer with a [bool]. *)

type 'a t

val create : unit -> 'a t

val push : 'a t -> time:float -> aux:int -> 'a -> unit
(** Add an entry.  [aux] is an int stored beside the value (the lease
    table keeps the slot epoch there, the transport the packed source
    and destination); owners with no use for it pass [0]. *)

val push_cell : 'a t -> Float.Array.t -> int -> aux:int -> 'a -> unit
(** [push_cell t cells i] is {!push} at time [Float.Array.get cells i].
    A caller that computes a time writes it into a cell of its own
    [Float.Array], where it stays unboxed, rather than passing it to
    {!push} boxed. *)

val push_after : 'a t -> now:float -> delay:float -> aux:int -> 'a -> unit
(** [push] at [max (now +. delay) now].  The sum is formed here, so a
    caller whose [now] and [delay] are already boxed (a clock held in a
    [float ref], a config field, a constant) allocates nothing, where
    passing a computed [~time] to {!push} would box it. *)

val take : 'a t -> 'a
(** Remove the smallest [(time, seq)] entry and return its value; read
    its time and [aux] with {!top_time} and {!top_aux} first if needed.
    Raises [Invalid_argument] when empty. *)

val top_time : 'a t -> float
(** The smallest entry's time; [infinity] when empty.  Boxes its result
    when called from another module. *)

val top_aux : 'a t -> int
(** The smallest entry's [aux].  Raises [Invalid_argument] when empty. *)

val due : 'a t -> now:float -> bool
(** [due t ~now] is true iff the smallest entry's time is [<= now]. *)

val due_before : 'a t -> now:float -> seq:int -> bool
(** {!due}, and the smallest entry was pushed before the [seq]-th push
    ({!pushed} read earlier gives such a bound). *)

val top_after : 'a t -> now:float -> bool
(** True iff the heap is non-empty and its smallest time is [> now]. *)

val top_le : 'a t -> 'b t -> bool
(** [top_le a b] compares smallest times, an empty heap counting as
    [infinity]: [top_time a <= top_time b] without boxing either. *)

val pushed : 'a t -> int
(** How many entries have ever been pushed: the sequence number the
    next push gets. *)

val size : 'a t -> int

val is_empty : 'a t -> bool

val compact : 'a t -> live:(time:float -> aux:int -> 'a -> bool) -> unit
(** Drop every entry for which [live] is false and re-heapify in place.
    Surviving entries keep their [(time, seq)] keys, so their relative
    take order is exactly what it would have been without compaction.
    Owners using lazy deletion (the lease table) call this when dead
    entries dominate, bounding heap memory under long churn; the
    columns are shrunk to [max 64 (4 * size)] entries when that is less
    than half their length. *)
