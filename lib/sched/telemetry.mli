(** Telemetry sinks for the simulation layer.

    [attach obs memory] installs an access logger (the same
    {!Memory.set_access_logger} hook the analysis coverage audit and
    the fuzzer use) that counts every concrete shared-memory access
    into the obs registry ([mem/reads], [mem/writes], and per-region
    variants); with [~events:true] each access additionally becomes an
    instant trace event ([mem:names], [mem:device], ...) in the event
    ring.

    Only one logger can be attached to a memory at a time — attaching
    telemetry replaces any logger the analysis or fuzzing layers
    installed, so attach it only on runs you own end-to-end (the
    [renaming trace] and [renaming metrics] subcommands do). *)

val op_label : Op.t -> string
(** Short operation label without operands ("tas-name", "tau-submit",
    ...), used as trace event names. *)

val op_args : Op.t -> (string * int) list
(** The operation's operands as event args. *)

val attach : ?events:bool -> Renaming_obs.Obs.t -> Memory.t -> unit
