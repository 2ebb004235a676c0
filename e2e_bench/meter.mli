(** Wall-clock timing around calls into the system under test.

    Time is read with [Monotonic_clock.now] (CLOCK_MONOTONIC, [noalloc])
    and only around calls into a layer's public functions; everything in
    between is the benchmark's own generator.  Each workload names its
    call kinds up front: kind 0 is the call whose latency the end-to-end
    metrics report, and it is always recorded; the other kinds are
    recorded, and every call is kept as a span, only when the meter is
    traced.

    Spans are a bounded window: {!start_rep} clears them, so after a run
    they hold the first 20,000 calls of the last repetition.  A span
    has a kind, start, stop, parent span (the repetition's root span for
    top-level calls) and the request id the caller passes as its
    correlation id. *)

type t

val now : unit -> int
(** Nanoseconds on CLOCK_MONOTONIC. *)

val create : traced:bool -> string array -> t
val traced : t -> bool
val kinds : t -> string array

val lat : t -> int -> Lat.t
(** Latencies of one kind, merged over every repetition metered so far. *)

val start_rep : t -> unit
(** Begin a measured repetition: reset the in-call time, clear the
    spans and open the repetition's root span. *)

val end_rep : t -> int
(** Close the repetition; returns its wall time (ns). *)

val timed_ns : t -> int
(** Time spent inside top-level calls since {!start_rep}. *)

val call : t -> int -> rid:int -> int -> unit
(** [call m kind ~rid t0]: a top-level call that started at [t0] has
    just returned. *)

val open_ : t -> int -> rid:int -> int -> int
(** Open a top-level call whose children are timed too; returns its span
    id ([-1] when untraced or the window is full).  Close it with
    {!close}. *)

val close : t -> int -> int -> int -> unit
(** [close m id kind t0]. *)

val child : t -> int -> parent:int -> rid:int -> int -> int -> unit
(** [child m kind ~parent ~rid t0 t1]: a call nested in span [parent];
    recorded only when traced, and not added to {!timed_ns}. *)

(** {2 The span window} *)

type span = { kind : int; start : int; stop : int; parent : int; rid : int }

val spans : t -> span array
(** Oldest first; the root span's [parent] is [-1]. *)

val root_kind : int
(** Kind index used for the repetition's root span ([bench.rep]); it is
    not one of the workload's kinds. *)
