(** Online safety monitor: checks the paper's safety invariants on every
    executor event and fails fast with a trace excerpt.

    Wire {!hook} into {!Renaming_sched.Executor.run}'s [on_event]; call
    {!finalize} on the resulting report.  Invariants checked
    incrementally, the moment they break:

    - name uniqueness: no two processes return the same name;
    - namespace bounds: every returned name is in [0, namespace);
    - ownership (optional): a returned name's TAS register is owned by
      the returning process — the claim is backed by a win;
    - crash discipline: no step, return or second crash by a crashed
      process; recovery only of crashed processes; no activity after
      returning;
    - step-ledger consistency (at {!finalize}): the report's per-process
      ledger and tick count match the monitor's own event counts, and
      the final assignment contains exactly the returns the monitor
      observed.

    A violation raises {!Violation} carrying a stable [kind] tag (used
    by the model checker and shrinker to decide whether two failures are
    "the same") and a [message] embedding the last few events — the
    failure is caught at the offending step, not discovered in a
    post-hoc report diff. *)

type violation = {
  kind : string;
      (** stable machine-readable tag, e.g. ["duplicate-name"],
          ["step-after-crash"], ["unbacked-claim"], ["ledger-mismatch"] *)
  message : string;  (** human-readable description plus trace excerpt *)
}

exception Violation of violation

type t

val create :
  ?check_ownership:bool ->
  ?window:int ->
  memory:Renaming_sched.Memory.t ->
  processes:int ->
  unit ->
  t
(** [check_ownership] (default false): enable the register-ownership
    check — valid for algorithms that claim names exclusively by winning
    namespace TAS registers (all of [lib/core] and [lib/baselines]'
    probing/scanning ones; not the splitter grid, which derives names
    from read/write registers).  [window] (default 24) is the trace
    excerpt length. *)

val hook : t -> Renaming_sched.Executor.event -> unit
(** Feed one event; raises {!Violation} on the first broken invariant. *)

val finalize : t -> Renaming_sched.Report.t -> unit
(** Post-run consistency checks; raises {!Violation} on mismatch. *)

(* lint: allow unused-export — test hook: observes the monitor *)
val violation_count : t -> int
(** Number of violations raised through this monitor so far. *)
