(** The telemetry capability: a {!Metrics} registry, a bounded
    {!Ring} of trace events, and a logical clock.

    The capability is threaded explicitly — as [Obs.t option] — through
    the algorithms ([Tight], [Loose_geometric], ...), the executors
    ([Executor.run], [Directed.run], [Mc_run.execute]) and the campaign
    runners (chaos, mcheck, fuzz).  Disabled mode is the [None] case:
    every recording site is a single branch on the option, so runs
    without a capability pay one branch per site and allocate nothing
    (test/test_tick.ml bounds the words a tick allocates with and without
    one; docs/observability.md has the design rationale). *)

type t

val create : ?ring_capacity:int -> unit -> t

val metrics : t -> Metrics.t
val ring : t -> Ring.t

val set_now : t -> (unit -> int) -> unit
(** Install the logical clock; the executor does this at run start so
    events carry executor ticks. *)

(** {2 Metrics shorthands} *)

val counter : t -> string -> Metrics.counter
val histogram : ?bounds:int array -> t -> string -> Hist.t
val gauge : t -> string -> (unit -> float) -> unit
val vector : t -> string -> int array -> unit

(** {2 Events} *)

val instant : t -> pid:int -> ?args:(string * int) list -> string -> unit
val span_begin : t -> pid:int -> ?args:(string * int) list -> string -> unit
val span_end : t -> pid:int -> ?args:(string * int) list -> string -> unit

val events : t -> Ring.event list
(** Oldest first. *)

(** {2 Per-pid views}

    Algorithm programs learn their pid at instance construction;
    [scoped] fixes it once so the program body records events without
    threading the pid through every recursive call. *)

type scoped

val scoped : t -> pid:int -> scoped
val scoped_obs : scoped -> t

val s_instant : scoped -> ?args:(string * int) list -> string -> unit
val s_begin : scoped -> ?args:(string * int) list -> string -> unit
val s_end : scoped -> ?args:(string * int) list -> string -> unit
