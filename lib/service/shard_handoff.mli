(** Model-checkable core of the router's slice-handoff fencing
    (docs/fault_model.md §7), generalizing {!Handoff} from a single
    lease to a whole slice of [width] names.

    Shared state: an epoch register (word 0) plus, per (epoch, name), a
    {e grant} lock and a {e settle} lock, and per name a set-once
    {e transfer-freedom} flag.  A grantor at the old epoch claims the
    grant lock, sits in a one-step hold window, then commits via a TAS
    on the settle lock.  The slice taker fences {e every} name of the
    old epoch by TASing its settle lock: winning proves the name was
    never committed and publishes the freedom flag; losing means a live
    lease transfers intact and must never be regranted.  Only then does
    the taker bump the epoch and regrant through the new-epoch path,
    which is gated on the freedom flag.

    Safety (checked exhaustively at small [n]): no name is ever returned
    by two processes — a name committed at the old epoch can never see
    its freedom flag set, and each epoch's settle lock admits one
    committer.

    The mutant taker validates by {e reading} the settle lock instead of
    TASing it — handing the slice over without actually fencing it.  An
    owner caught in its hold window then commits concurrently with the
    new epoch's regrant of the same name: a global double grant, which
    the checker and fuzzer must find. *)

val instance : n:int -> seed:int64 -> Renaming_sched.Executor.instance
(** [n >= 2] processes: the epoch-0 owner of name 0, the slice taker,
    and [n - 2] extra grantors spread over the slice's names. *)

val instance_unfenced : n:int -> seed:int64 -> Renaming_sched.Executor.instance
(** Same roster with the unfenced (read-instead-of-TAS) mutant taker;
    duplicate grants of name 0 are reachable. *)
