(** A verification target: a named, seeded instance builder and the
    {!Monitor.mode} that judges its runs, declared once.  The chaos
    campaign, DPOR [mcheck], [fuzz] and [shrink] all take one, and a
    repro artifact records its [name] and [n]. *)

type t = {
  name : string;  (** unique with [n]: a repro's [(algorithm, n)] resolves to one target *)
  n : int;  (** process count of every built instance *)
  mode : Monitor.mode;
  build : seed:int64 -> Renaming_sched.Executor.instance;
      (** a fresh instance; all its randomness derives from [seed], so
          runs and replays are deterministic *)
}
