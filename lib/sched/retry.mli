(** Bounded retry with exponential backoff over transient memory faults.

    Transient faults (docs/fault_model.md) make a TAS or read respond
    {!Op.Faulted} instead of taking effect.  These
    combinators retry the operation up to 8 times, idling
    [2^(k-1)] steps (capped at 64) before the k+1-th attempt via
    explicit {!Op.Yield} steps — in an asynchronous model, backing off
    can only mean burning scheduled steps.  That is the one policy:
    every caller retries the same way.

    In a fault-free run every combinator behaves exactly like its
    {!Program} counterpart at identical step cost.  The lease protocols
    run their auxiliary locks through {!tas_aux} and {!read_aux}; the
    probing algorithms issue each namespace TAS themselves
    ([Plan_exec], Tight's scans) and hand a fault to
    {!tas_name_after_fault}.

    Exhaustion is resolved in the safe direction: a TAS that faults
    every attempt reports *lost* (the process never claims an unproven
    name), a read reports *set* (the scanner moves on). *)

(* lint: allow unused-export — test hook: the delay doubles up to its cap *)
val backoff_delay : attempt:int -> int
(** Yield steps inserted after failed attempt [attempt] (1-based). *)

val jittered_delay : rng:Renaming_rng.Xoshiro.t -> prev:int -> int
(** Decorrelated-jitter backoff: uniform on [[1, min (64, 3 * prev)]],
    always within the backoff's [[1, 64]].  Thread the returned value
    back as the next [prev] (start from 1); each caller walks its own
    delay chain, so synchronized retry herds spread out instead of
    colliding on the deterministic exponential ladder.  Used for
    transport resends and churn re-admission; the deterministic
    {!backoff_delay} remains for the yield-step program combinators,
    which must stay schedule-reproducible. *)

val tas_name_after_fault : int -> (bool -> 'a Program.t) -> 'a Program.t
(** [tas_name_after_fault i k]: a [Tas_name i] has answered
    {!Op.Faulted} on its first attempt; retry it as {!tas_aux} retries
    its operation, and go on with [k won] ([false] once every attempt
    has faulted).  A caller that issues the first attempt itself, as
    [Plan_exec] and Tight's scans do, hands a fault over here. *)

val tas_aux : int -> bool Program.t

val read_aux : int -> bool Program.t
