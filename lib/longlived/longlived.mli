(** Long-lived loose renaming: names are acquired, used, and released.

    The paper's algorithms are one-shot; the long-lived variant (related
    work [13], Eberly–Higham–Warpechowska-Gruca) lets each of [sessions]
    processes repeatedly acquire a distinct name, hold it, and give it
    back.  We reproduce the randomized probing approach in the paper's
    hardware-TAS model: the namespace holds
    [m = ⌈(1+ε)·sessions⌉] releasable registers, an acquire probes
    uniform names until it wins one (success probability at least
    [ε/(1+ε)] regardless of churn, since at most [sessions] names are
    ever held), and a release frees the register.

    Guarantees, enforced structurally by the substrate and checked by
    the tests:
    - mutual exclusion: a register is held by at most one process at a
      time (TAS wins only on free registers; release is owner-checked);
    - lock-freedom under churn: every acquire terminates (the geometric
      success probability has a positive floor, plus a deterministic
      sweep cap) — and the cap itself is a *structured* outcome: a
      tripped probe cap is counted in [stats.cap_exhaustions], and a
      session whose recovery sweep also fails aborts gracefully
      ([stats.aborted_sessions]) instead of spinning;
    - the amortized step complexity of an acquire concentrates around
      [(1+ε)/ε] probes — measured by experiment T15. *)

type config = {
  sessions : int;  (** concurrent processes, each holding ≤ 1 name *)
  rounds : int;  (** acquire/release cycles per process *)
  epsilon : float;  (** namespace slack *)
  probe_cap : int option;
      (** random probes before the deterministic sweep; [None] means the
          default [64 · m].  Exposed so tests (and embedders such as
          {!Renaming_service}) can exercise the exhaustion path. *)
}

val make_config :
  ?epsilon:float -> ?rounds:int -> ?probe_cap:int -> sessions:int -> unit -> config
(** [epsilon] defaults to 0.5, [rounds] to 8, [probe_cap] to [64 · m]. *)

val namespace : config -> int

val namespace_for : sessions:int -> epsilon:float -> int
(** [max (sessions+1) ⌈(1+ε)·sessions⌉] — the namespace the long-lived
    probing discipline needs for [sessions] concurrent holders.  Shared
    with the lease-based service layer ({!Renaming_service.Lease}),
    which sizes its slot table with the same slack. *)

type stats = {
  mutable acquires : int;
  mutable releases : int;
  mutable release_failures : int;  (** owner-check refusals; must be 0 *)
  probe_summary : Renaming_stats.Summary.t;  (** probes per successful acquire *)
  mutable max_held : int;  (** peak simultaneously-held names observed *)
  mutable cap_exhaustions : int;
      (** probe-cap trips (each followed by a deterministic sweep);
          0 in every fair run of sensible configurations *)
  mutable aborted_sessions : int;
      (** sessions that gave up after a tripped cap *and* a failed
          sweep — the structured form of the former "unreachable in
          practice" branch *)
}

val create_stats : unit -> stats ref

(* lint: allow unused-export — test hook: a memory a test fills to reach the probe-cap path *)
val instance :
  ?stats:stats ref -> config -> stream:Renaming_rng.Stream.t -> Renaming_sched.Executor.instance
(** Every program returns [None]; the outcome of a long-lived run is
    its [stats], not an assignment. *)

val run :
  ?stats:stats ref ->
  ?adversary:Renaming_sched.Adversary.t ->
  config ->
  seed:int64 ->
  Renaming_sched.Report.t

val predicted_probes : config -> float
(** [(1+ε)/ε], the geometric mean of probes per acquire when all other
    sessions hold a name. *)
