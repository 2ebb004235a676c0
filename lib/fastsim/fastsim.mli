(** Array-based synchronous simulation of the standard-model algorithms
    for very large [n].

    The free-monad executor models the full asynchronous game (pluggable
    adversaries, crash injection, per-operation interleaving) and
    comfortably reaches [n ≈ 2^16]; this module trades all of that for
    raw speed — a flat bit-table of registers, lock-step rounds
    (equivalent to the round-robin schedule), one shared generator —
    and reaches [n ≥ 2^22], the regime where the doubly-logarithmic
    claims of Lemmas 6 and 8 separate visibly from [log n] (experiment
    F4).  Probes are i.u.r. exactly as in the algorithms; per-process
    step counts are exact.

    Cross-validation against the executor is part of the test suite:
    both backends must land inside the same lemma bounds. *)

type result = {
  n : int;
  namespace : int;
  unnamed : int;
  max_steps : int;  (** max shared-memory probes by any process *)
  mean_steps : float;
  named_per_phase : int array;  (** wins per round (Lemma 6) or phase (Lemma 8) *)
}

val loose_geometric : n:int -> ell:int -> seed:int64 -> result
(** Lemma 6 at scale. *)

val loose_clustered : ?boost:int -> n:int -> ell:int -> seed:int64 -> unit -> result
(** Lemma 8 at scale (tail-absorbing last cluster).  [boost]
    (default 1) multiplies the steps per phase; experiment F4 uses it to
    show that Lemma 8's stated constant is optimistic — the proof counts
    winners as if they kept probing — and that a small constant boost
    restores the claimed bound. *)

(* lint: allow unused-export — test hook: the uniform-probing baseline at scale *)
val uniform_probing : n:int -> m:int -> seed:int64 -> result
(** The naive baseline: probe until named (deterministic sweep after
    [4m] probes guarantees completion).  [named_per_phase] is empty. *)
