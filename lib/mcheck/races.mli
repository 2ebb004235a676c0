(** Race detection for source-DPOR: vector-clock happens-before over an
    executed schedule, reversible-race enumeration, and reordering
    witnesses.

    Events are the executed scheduling decisions of one directed run.
    An event either carries the operation a pid executed ([Some op]) or
    is a *barrier* ([None]) — a crash, recovery or transient-fault
    injection, conservatively dependent on everything, so no race is
    ever detected across an injection (the explorer enumerates
    injection subtrees exhaustively instead). *)

module Op = Renaming_sched.Op

val dependent : Op.t -> Op.t -> bool
(** [not (Renaming_analysis.Footprint.independent a b)] — the single
    definition of the dependence relation the checker reverses races
    over, exported so [renaming analyze] can audit it against the
    executable commutation oracle. *)

type event = { ev_pid : int; ev_op : Op.t option }

val step : pid:int -> Op.t -> event
val barrier : pid:int -> event

type race = { r_first : int; r_second : int }
(** Indices into the event array, [r_first < r_second]. *)

(* lint: allow unused-export — test hook: clocks follow program and dependence order *)
val clocks : ?dependent:(Op.t -> Op.t -> bool) -> pids:int -> event array -> int array array
(** [clocks.(j).(p)] is the largest index of a pid-[p] event that
    happens-before event [j] (inclusive of [j] itself), or [-1].
    [pids] bounds the pid space. *)

(* lint: allow unused-export — test hook: happens-before is reflexive and ordered *)
val happens_before : clocks:int array array -> event array -> int -> int -> bool
(** [happens_before ~clocks events i j] — reflexive; requires [i <= j]
    to be meaningful (events later in the execution never happen-before
    earlier ones). *)

val races :
  ?dependent:(Op.t -> Op.t -> bool) ->
  ?from:int ->
  pids:int ->
  event array ->
  int array array * race list
(** All *reversible* races of the execution: pairs [(i, j)] of dependent
    steps of different pids with no intervening happens-before path, [j
    >= from] (pass the first index past the already-explored prefix to
    skip redundant re-detection).  Per [(j, p)] only the last dependent
    pid-[p] event before [j] is reported.  Also returns the computed
    clocks for reuse with {!witness}. *)

val witness : clocks:int array array -> event array -> race -> int list
(** The reordering witness of a race [(i, j)]: indices, in execution
    order, of the events in [(i, j)) that do not happen-after [i],
    followed by [j] — executing these from the state before [i] reverses
    the race.  All witness events are steps (barriers are dependent with
    everything, hence happen-after [i]). *)
