(** Processes as resumable programs over shared-memory operations.

    A program is a free monad over {!Op.t}: it is either [Done v] or
    parked at a shared-memory operation with a continuation awaiting the
    response.  The executor advances one parked operation per scheduled
    step; everything between two operations (arithmetic, coin flips) is
    local computation and costs nothing, per the model of §II-A. *)

type 'a t =
  | Done of 'a
  | Step of Op.t * (Op.response -> 'a t)

val return : 'a -> 'a t

val bind : 'a t -> ('a -> 'b t) -> 'b t

module Syntax : sig
  val ( let* ) : 'a t -> ('a -> 'b t) -> 'b t
end

(** {2 Primitive operations} *)

val tas_name : int -> bool t
(** Try to win namespace register [i]; [true] iff won. *)

val tas_aux : int -> bool t
val read_name : int -> bool t

val yield : unit t
(** One deliberate no-op step — the backoff unit of the transient-fault
    retry helpers. *)

(** {2 Fault-aware primitives}

    Like their plain counterparts, but surface an injected transient
    fault as [Error `Faulted] instead of raising.  The plain primitives
    treat [Faulted] as a protocol error ([Failure]) so that code not
    written for the fault model fails fast rather than misbehaving;
    fault-tolerant retry loops ({!Retry}) build on these
    variants. *)

val try_tas_aux : int -> (bool, [ `Faulted ]) result t

val read_word : int -> int t
(** Read an atomic read/write register. *)

val write_word : idx:int -> value:int -> unit t

val tau_submit : reg:int -> bit:int -> unit t

val tau_poll : int -> Renaming_device.Tau_register.answer t

(** {2 Composite helpers used by several algorithms} *)

val scan_names : first:int -> count:int -> int option t
(** TAS registers [first .. first+count-1] in order until one is won;
    returns the won name, or [None] if all were taken. *)

val recover_owned : namespace:int -> int option t
(** Sweep the namespace with one ownership query per register (one
    step each, never faulted) and return the register this
    process already owns, if any.  The standard recovery preamble: run
    after a crash-restart so a process that won a name before crashing
    keeps it instead of leaking it.  Costs up to [namespace] steps. *)

(* lint: allow unused-export — test hook: a step-free program's value, for the monad laws *)
val run_local : 'a t -> 'a option
(** Runs a program only if it performs no shared-memory operation;
    [None] if it parks.  Used in unit tests. *)
