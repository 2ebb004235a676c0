(** The shared memory of one simulation: the namespace registers, an
    auxiliary TAS-bit region, and the τ-registers (if the algorithm uses
    them) with their answers: one [int] per pid for all registers, the
    verdict on the pid's latest request (a requester has at most one
    outstanding). *)

type t

(** The shared-state regions of a simulation, as seen by the access
    instrumentation: the namespace TAS array, the auxiliary TAS array,
    the plain read/write word registers, and the τ-register device. *)
type region = Names | Aux | Words | Device

(** One concrete cell access performed by an executed operation.
    [acc_write] distinguishes reads from writes; [acc_pid_sensitive]
    marks accesses whose effect or result depends on the calling pid
    (ownership tests, TAS wins that record the winner, device queues).
    The static-analysis audit ({!Renaming_analysis.Commute}) compares
    these against the static footprint table the model checker prunes
    with. *)
type access = {
  acc_region : region;
  acc_idx : int;
  acc_write : bool;
  acc_pid_sensitive : bool;
}

val pp_access : Format.formatter -> access -> unit

val create :
  namespace:int ->
  ?aux:int ->
  ?words:int ->
  ?taus:Renaming_device.Tau_register.t array ->
  ?processes:int ->
  unit ->
  t
(** [processes] (default 0) sizes the τ answers: pids [0, processes)
    may submit τ-requests, and the answers cost [processes] words
    whatever the number of registers. *)

val names : t -> Renaming_shm.Tas_array.t
(** The namespace, one TAS register per name. *)

val aux : t -> Renaming_shm.Tas_array.t
(** Auxiliary TAS bits (the loose algorithms use none). *)

val words : t -> int array
(** Plain atomic read/write registers (all start at 0) — the substrate
    of read/write constructions such as splitters. *)

val namespace : t -> int

val apply : t -> pid:int -> Op.t -> Op.response
(** Executes one operation atomically (the executor serialises
    operations, so atomicity is by construction).  [Tau_submit] resets
    the pid's answer to pending; [Tau_poll reg] reads the verdict on
    the pid's latest request if that request went to [reg], and
    [Pending] otherwise.
    @raise Invalid_argument on a [Tau_submit] from a pid outside
    [0, processes). *)

val set_access_logger : t -> (pid:int -> Op.t -> access list -> unit) option -> unit
(** Attach (or detach, with [None]) an access logger: [apply] will
    report the concrete access set of every executed operation,
    reflecting what actually happened (a losing TAS logs no write).
    [None] by default; the only cost when detached is one field test
    per operation. *)

val tick_taus : t -> unit
(** Run one device clock cycle on every τ-register that has queued
    requests, writing each request's verdict into the answers.
    Allocates nothing. *)

val assignment_of_returns : t -> int array -> Renaming_shm.Assignment.t
(** Build the final assignment from per-process names ([-1] for none),
    validating against the namespace size. *)
