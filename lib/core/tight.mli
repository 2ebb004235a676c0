(** Tight renaming using (log n)-registers — the algorithm of Section III.

    Every process walks the round clusters: in round [i] it picks one
    uniform TAS bit of one uniform block of cluster [C_i], submits the
    request to that block's counting device, and awaits the verdict.  A
    confirmed winner scans the block's [τ = log n] name slots with plain
    TAS operations and must win one (at most τ winners per block).  A
    loser moves to round [i+1].  Processes that exhaust all rounds scan
    the reserve names directly; as an unconditional safety net they then
    scan the cluster-covered names too (relevant only under crashes,
    which can burn device capacity without consuming a name).

    Theorem 5's claims — namespace exactly [n], step complexity
    [O(log n)] w.h.p. — hold under the [Mass_conserving] schedule; the
    [Paper_literal] schedule exhibits the coverage gap documented in
    DESIGN.md §3 and is kept for the T1b experiment. *)

type instrumentation = {
  requests_per_tau : int array;  (** device requests received, per τ-register *)
  wins_per_round : int array;  (** confirmed device-bit wins, per round (0-based) *)
  losses_per_round : int array;  (** device-bit losses, per round *)
  mutable reserve_entries : int;  (** processes that fell through to the reserve *)
  mutable safety_net_entries : int;  (** processes that needed the full fallback scan *)
}

val create_instrumentation : ?obs:Renaming_obs.Obs.t -> Params.t -> instrumentation
(** With [obs], the private counters are additionally registered on the
    shared metrics registry ([tight/requests_per_tau],
    [tight/wins_per_round], [tight/losses_per_round] as read-through
    vectors; [tight/reserve_entries], [tight/safety_net_entries] as
    gauges), so metrics snapshots include them. *)

val instance :
  ?rule:Renaming_device.Counting_device.discard_rule ->
  ?instr:instrumentation ->
  ?obs:Renaming_obs.Obs.t ->
  params:Params.t ->
  stream:Renaming_rng.Stream.t ->
  unit ->
  Renaming_sched.Executor.instance
(** Builds memory (namespace [n], one τ-register per block) and one
    program per process.  Process [pid]'s coin flips come from
    [Stream.fork stream ~index:pid], so runs are replayable.  A process
    is one mutable record: its program is parked at the first round's
    submit, and rerunning that value (a crash-restart) starts again from
    the first round while the coin flips go on from the stream.

    With [obs], programs record [tight/probes]/[wins]/[losses] counters
    and per-pid round/probe/win/lose/reserve-scan/safety-net trace
    events; without it each recording site costs one branch. *)

val run :
  ?rule:Renaming_device.Counting_device.discard_rule ->
  ?instr:instrumentation ->
  ?obs:Renaming_obs.Obs.t ->
  ?adversary:Renaming_sched.Adversary.t ->
  params:Params.t ->
  seed:int64 ->
  unit ->
  Renaming_sched.Report.t
(** Convenience wrapper: build an instance from [seed] and execute it
    (default adversary: round-robin).  [obs] is threaded through both
    the programs and the executor. *)
