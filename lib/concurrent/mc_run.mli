(** Multicore execution of the standard-model algorithms.

    Processes are partitioned over OCaml 5 domains; within a domain the
    per-process step loops are interleaved step-by-step (so in-domain
    processes progress concurrently too), while cross-domain contention
    on the registers is the real thing.  Step counts use the same
    accounting as the simulator, so the step-complexity tables can be
    cross-checked between backends.

    The registers are the hardware TAS of the paper's standard model
    (§IV): one bit each, set once, packed 32 to an [int Atomic.t] word
    (register [i] is bit [i land 31] of word [i lsr 5]), so no block is
    allocated per register.  A TAS reads the word and, if its bit is
    clear, [compare_and_set]s it with the bit added, retrying only when
    another bit of the word changed meanwhile: linearizable (exactly
    one process wins each register), lock-free, not wait-free (OCaml 5.1
    has no atomic fetch-or).  One TAS is one step, retries included.
    Every step also compares its register with the namespace, so a
    target outside the register file (a spare bit of the last word
    included) raises [Invalid_argument] rather than set a bit.

    A process runs a probe plan ({!Renaming_plan.Plan}), the same one
    the simulator runs through [Renaming_sched.Plan_exec], and its
    randomness is forked from the seed exactly like in the simulator
    (the stream of [Stream.fork ~index:pid]).  On one domain a run is
    the simulator's run under a round robin that steps the live
    processes in pid order: the same per-pid names and step counts
    (test/test_plan.ml checks this).  On several domains scheduling
    nondeterminism is genuine, so only distribution-level quantities
    are comparable across backends, not individual runs.

    Shard layout: every process runs the same plan.  With [d] domains
    and [b = ⌈n/d⌉], domain [k] runs the contiguous block of pids
    [\[k·b, (k+1)·b)] (cut at [n]; the last block may be shorter, and a
    domain beyond [n] gets none).  Each domain builds its own shard,
    forking its pids' streams with [Stream.fork_into] on that domain, in
    parallel with the others.  A shard holds its processes in flat
    arrays with one slot per process: the live set (the processes not
    yet named with a step left) and one [Bytes] buffer with every
    process's 32-byte generator state.  Each domain writes its
    processes' names and step counts (at a win, or for all still live
    when the plan runs out) straight into the result's arrays, indexed
    by pid; blocks are contiguous, so domains share a cache line of them
    only at a block's edge, and nothing is merged after the join.  A run
    keeps about 7 words per process in all (the live set, 4 words of
    generator state, the name and the step count), and with the
    registers packed 32 to an [Atomic] word it allocates no block per
    process or per name.

    Each domain sweeps its live processes in pid order, one step each
    per sweep, and drops the finished ones without reordering the rest.
    On one domain a run is therefore a pure function of its seed and
    plan.  All processes start at the plan's first step, so every live
    process of a shard sits at the same plan position with the same
    steps taken: the shard keeps that position once and walks the plan
    segment by segment.  A Probe's sweep draws and TASes a register for
    each live process.  A Sweep's sweep makes one TAS of its cell for
    the whole live set: a register once set stays set, so only the
    first live process can win it, and each of the others counts the
    step it would have lost.

    Time is injected as a {!Renaming_clock.Clock.t} capability: with the
    default {!Renaming_clock.Clock.none} the run measures no wall time
    ([wall_seconds = 0.]) and never expires; the [bin/] edge passes a
    real clock when timing matters.  Passing [?deadline] (which requires
    a ticking clock) arms a watchdog: instead of hanging forever, a
    livelocked run is cancelled cooperatively and reported as {!Stalled}
    with the per-domain step counts frozen at the timeout. *)

type result = {
  assignment : Renaming_shm.Assignment.t;
  steps : int array;  (** per process *)
  wall_seconds : float;
  domains : int;
}

exception
  Stalled of {
    deadline : float;  (** the configured deadline, in clock units *)
    elapsed : float;  (** clock units actually elapsed at cancellation *)
    per_domain_steps : int array;  (** total steps per domain at timeout *)
    finished_domains : int;  (** domains that had already finished *)
    domains : int;
  }
(** Raised by {!execute} (and the wrappers) when a [?deadline] expires
    before every domain finishes.  The workers are joined before the
    exception is raised, so no domain is leaked.  [Printexc.to_string]
    renders it as a diagnostic line (deadline, elapsed time, finished
    domains and per-domain steps). *)

type registers
(** The register file of a run: one-bit TAS registers [\[0, m)], packed
    32 to an [Atomic] word. *)

(* lint: allow unused-export — test hook: a TAS after the join finds each raced register set *)
val registers : int -> registers
(** [registers m] is a file of [m] clear registers.  Raises
    [Invalid_argument] when [m < 0]. *)

(* lint: allow unused-export — test hook: the step loop's TAS, won by exactly one racer *)
val test_and_set : registers -> int -> bool
(** [test_and_set regs i] sets register [i] and returns [true] if it was
    clear, or returns [false] and writes nothing: the TAS the step loop
    makes, inlined there.  Linearizable: exactly one caller ever wins
    each register.  Raises [Invalid_argument] when [i] is not below the
    file's size (the spare bits of the last word are not registers), or
    is negative. *)

(* lint: allow unused-export — test hook: the step loop's draw equals Sample.uniform_int *)
val draw : Bytes.t -> int -> int -> int
(** [draw buf off bound] is the draw the step loop makes for a probe,
    on the generator state at byte offset [off] of [buf]: the value
    [Renaming_rng.Sample.uniform_int] returns on the same state, written
    out in this module so that a step calls nothing.  Raises
    [Invalid_argument] when [bound <= 0] or the 32 bytes at [off] are
    not inside [buf]. *)

val max_steps : result -> int
val unnamed_count : result -> int

val execute :
  ?obs:Renaming_obs.Obs.t ->
  ?domains:int ->
  ?clock:Renaming_clock.Clock.t ->
  ?deadline:float ->
  n:int ->
  namespace:int ->
  plan:Renaming_plan.Plan.t ->
  seed:int64 ->
  unit ->
  result
(** Run [n] processes, each with the probe plan [plan]
    ({!Renaming_plan.Plan}), on [domains] domains (default
    {!recommended_domains}) spawned for this run and joined before it
    returns; without a [?deadline] the calling domain runs one of the
    shards.  Raises
    [Invalid_argument] if [n] or [namespace] is negative, if [?deadline]
    is given without a ticking clock (it could never expire), or if any
    non-empty segment of [plan] lies outside [\[0, namespace)], even one
    no process would reach.  Those checks run before any domain is
    spawned, so they do not depend on the seed, and no code of the
    caller's runs on a worker.  Raises {!Stalled} if the deadline passes
    before all domains finish.  [wall_seconds] covers building the
    shards as well as running them.

    With [obs], a completed run records — strictly after the worker
    domains are joined, since the registry is process-local state —
    the [multicore/steps] histogram (per-process step counts), the
    [multicore/steps_total] and [multicore/runs] counters, and
    [multicore/wall_seconds] / [multicore/domains] gauges.  A
    {!Stalled} run records nothing. *)

val loose_geometric :
  ?obs:Renaming_obs.Obs.t ->
  ?domains:int ->
  ?clock:Renaming_clock.Clock.t ->
  ?deadline:float ->
  n:int ->
  ell:int ->
  seed:int64 ->
  unit ->
  result
(** Lemma 6 on real domains: {!Renaming_plan.Plan.loose_geometric}
    over the namespace [n]. *)

val loose_clustered :
  ?obs:Renaming_obs.Obs.t ->
  ?domains:int ->
  ?clock:Renaming_clock.Clock.t ->
  ?deadline:float ->
  n:int ->
  ell:int ->
  seed:int64 ->
  unit ->
  result
(** Lemma 8 on real domains: {!Renaming_plan.Plan.loose_clustered}. *)

val uniform_probing :
  ?obs:Renaming_obs.Obs.t ->
  ?domains:int ->
  ?clock:Renaming_clock.Clock.t ->
  ?deadline:float ->
  n:int ->
  m:int ->
  seed:int64 ->
  unit ->
  result
(** The naive baseline: {!Renaming_plan.Plan.uniform_probing} over
    [m], with its default probe budget. *)

val recommended_domains : unit -> int
