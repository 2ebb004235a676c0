(** Schedule traces: record the adversary's decisions during a run and
    replay them later as a deterministic adversary.

    Because algorithm randomness is already pinned by the seed, a
    recorded trace makes the *entire* execution reproducible — the
    missing nondeterminism (who stepped when, who crashed) is captured
    here.  Replaying a trace against a fresh instance with the same
    seeds must yield an identical report; the test suite checks this
    for every adversary, which pins down the executor's determinism.

    Traces also feed the analysis helpers: per-process step timelines
    and operation census. *)

type event =
  | Scheduled of { time : int; pid : int; op : Op.t }
  | Crashed of { time : int; pid : int }
  | Recovered of { time : int; pid : int }

(** What a replay (or a directed run, {!Directed}) was about to do when
    the instance diverged from the recording.  [`Exhausted] means the
    trace ran out while processes were still runnable. *)
type expected =
  [ `Schedule of int | `Fault of int | `Crash of int | `Recover of int | `Exhausted ]

type divergence = {
  at : int;  (** decision index at which replay failed (= events consumed so far) *)
  expected : expected;
  time : int;  (** executor time at the failing decision *)
  runnable : int list;  (** pids runnable at that point, ascending *)
  crashed : int list;  (** pids crashed at that point, ascending (best effort: pids the replayer knows about) *)
}

exception Divergence of divergence
(** Raised by {!replaying} (and by {!Directed.run} in strict mode) when
    a decision cannot be applied: the named pid is not runnable (for
    schedule/fault/crash), not crashed (for recover), or the trace is
    exhausted while processes still run.  Structured so shrinkers and
    users can act on it instead of parsing a [Failure] string. *)

(* lint: allow unused-export — test hook: renders a divergence *)
val pp_divergence : Format.formatter -> divergence -> unit

type t

val create : unit -> t

val length : t -> int

val events : t -> event list
(** In execution order. *)

val recording : t -> base:Adversary.t -> Adversary.t
(** Wraps [base]; every decision it makes is appended to the trace
    (with the operation the scheduled process was about to perform). *)

val replaying : t -> Adversary.t
(** An adversary that replays the recorded decisions verbatim.  Raises
    {!Divergence} if the instance diverges from the recording (a
    decision names a process that is not in the required state) or the
    trace is exhausted while processes still run. *)

(* lint: allow unused-export — unit-tested, no caller yet: trace census *)
val census : t -> (string * int) list
(** Operation counts by kind (["tas-name", 812; ...]), sorted by kind
    name; crashes appear as ["crash"]. *)

val pp_summary : Format.formatter -> t -> unit

val pp_timeline :
  ?max_pids:int -> ?max_events:int -> Format.formatter -> t -> unit
(** ASCII timeline: one lane per process (lowest pids first), one column
    per recorded event.  Lane glyphs: [t] TAS, [r] read, [m] owned-name,
    [s] τ-submit, [p] τ-poll, [w] word write, [o] word read, [l]
    release, [y] yield, [X] crash, [R] recover, [.] idle.  Intended for
    eyeballing small adversarial executions. *)
