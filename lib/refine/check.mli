(** Online refinement checker: feed one backend's adapted event stream
    through the centralized {!Spec} and record the simulation outcome.

    One checker per trace (the spec state is the simulation relation's
    abstract state); violations carry the event index and the first
    inexplicable event, which is everything a counterexample needs to
    be replayed.  The executors' safety monitor
    ([Renaming_faults.Monitor]) owns one checker per run and raises a
    rejection as a ["refine:<reason>"] violation, so the ddmin /
    [.repro] machinery applies unchanged. *)

type violation = { v_index : int; v_event : Obs_event.t; v_reason : string }

val pp_violation : Format.formatter -> violation -> unit

type t

val create : ?obs:Renaming_obs.Obs.t -> config:Spec.config -> unit -> t
(** With [?obs], the [refine/events], [refine/stutters] and
    [refine/violations] counters are registered on the metrics registry
    and bumped as the trace is consumed (get-or-create: many checkers
    may share one registry). *)

val observe : t -> Obs_event.t -> [ `Ok | `Violation of violation ]
(** Applies the event to the spec.  A rejected event leaves the spec
    state unchanged and is reported; checking continues, so one run
    can count several violations. *)

(** {2 Timed lease events}

    The {!Spec} timed transitions ({!Spec.at} and the rest), each one
    event.  A rejection is recorded against the event it stands for:
    [Granted] for a lease, [Claimed] for a renewal or a use, and
    [Reclaimed] for an absorb.  Nothing is allocated unless the event
    is rejected, so a renewal or a use costs no allocation. *)

val observe_at : t -> now:float -> Obs_event.t -> [ `Ok | `Violation of violation ]

val lease :
  t ->
  now:float ->
  session:int ->
  name:int ->
  expires:float ->
  slice:int ->
  capacity:int ->
  [ `Ok | `Violation of violation ]

val renew :
  t -> now:float -> session:int -> name:int -> expires:float -> [ `Ok | `Violation of violation ]

val use : t -> now:float -> session:int -> name:int -> [ `Ok | `Violation of violation ]
val absorb : t -> now:float -> session:int -> name:int -> [ `Ok | `Violation of violation ]

val stutter : t -> unit
(** Count one adapter-level stutter: an internal backend event
    (renewal, retransmit, dedup replay, handoff) heard and mapped to
    no spec transition at all. *)

val spec : t -> Spec.t
val events : t -> int

(* lint: allow unused-export — test hook: the stutter count of a run with no obs registry *)
val stutters : t -> int
val violations : t -> int
