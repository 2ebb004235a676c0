(** Bounded retry with exponential backoff over transient memory faults.

    Transient faults (docs/fault_model.md) make a TAS or read respond
    {!Op.Faulted} instead of taking effect.  These
    combinators retry the operation up to [attempts] times, idling
    [base_delay * 2^(k-1)] steps (capped at [max_delay]) before the
    k+1-th attempt via explicit {!Op.Yield} steps — in an
    asynchronous model, backing off can only mean burning scheduled
    steps.

    In a fault-free run every combinator behaves exactly like its
    {!Program} counterpart at identical step cost.  The lease protocols
    run their auxiliary locks through {!tas_aux} and {!read_aux}; the
    probing algorithms issue each namespace TAS themselves
    ([Plan_exec], Tight's scans) and hand a fault to
    {!tas_name_after_fault}.

    Exhaustion is resolved in the safe direction: a TAS that faults
    every attempt reports *lost* (the process never claims an unproven
    name), a read reports *set* (the scanner moves on).

    Retry time can additionally be bounded with a [time_budget] measured
    on an injected {!Renaming_clock.Clock.t} — a virtual clock under the
    simulator, a real one only at the [bin/] edge.  The default clock is
    {!Renaming_clock.Clock.none}, under which the budget never binds, so
    untimed callers are unaffected. *)

type policy = {
  attempts : int;
  base_delay : int;
  max_delay : int;
  time_budget : float option;
      (** Give up retrying (in the safe direction) once this much clock
          time has elapsed since the combinator started, even if
          attempts remain.  [None] (the default) disables the bound. *)
}

val make_policy :
  ?attempts:int -> ?base_delay:int -> ?max_delay:int -> ?time_budget:float -> unit -> policy
(** Defaults: 8 attempts, base delay 1, delay cap 64, no time budget. *)

(* lint: allow unused-export — test hook: the backoff schedule *)
val backoff_delay : policy -> attempt:int -> int
(** Yield steps inserted after failed attempt [attempt] (1-based). *)

val jittered_delay : policy -> rng:Renaming_rng.Xoshiro.t -> prev:int -> int
(** Decorrelated-jitter backoff: uniform on
    [[base_delay, min (max_delay, 3 * prev)]], always within
    [[base_delay, max_delay]].  Thread the returned value back as the
    next [prev] (start from [base_delay]); each caller walks its own
    delay chain, so synchronized retry herds spread out instead of
    colliding on the deterministic exponential ladder.  Used for
    transport resends and churn re-admission; the deterministic
    {!backoff_delay} remains for the yield-step program combinators,
    which must stay schedule-reproducible. *)

val tas_name_after_fault : int -> (bool -> 'a Program.t) -> 'a Program.t
(** [tas_name_after_fault i k]: a [Tas_name i] has answered
    {!Op.Faulted} on its first attempt; retry it with the default
    policy's backoff and no clock, as {!tas_aux} retries its operation,
    and go on with [k won] ([false] once every attempt has faulted).
    A caller that issues the first attempt itself, as [Plan_exec] and
    Tight's scans do, hands a fault over here. *)

val tas_aux :
  ?policy:policy -> ?clock:Renaming_clock.Clock.t -> int -> bool Program.t

val read_aux :
  ?policy:policy -> ?clock:Renaming_clock.Clock.t -> int -> bool Program.t
