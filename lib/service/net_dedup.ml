module Program = Renaming_sched.Program
module Executor = Renaming_sched.Executor
module Memory = Renaming_sched.Memory
module Retry = Renaming_sched.Retry
open Program.Syntax

let max_epoch = 2

(* Aux layout: per dedup epoch [e], a grant lock then a settle lock;
   after those, the transfer-freedom flag.  Word 0 is the rid's dedup
   epoch — bumped when the entry is evicted and re-armed. *)
let grant_lock e = 2 * e
let settle_lock e = (2 * e) + 1
let free_flag = 2 * max_epoch

let read_epoch =
  let* v = Program.read_word 0 in
  Program.return (max 0 (min v (max_epoch - 1)))

(* One delivery of the request (original or network duplicate), routed
   by the dedup epoch.  At epoch 0 the grant-lock TAS is Dedup.admit:
   the winner is the fresh execution, every loser is a replay and grants
   nothing; the hold window is the grant sitting in the reply cache
   before Dedup.record commits it via the settle lock.  At epoch 1 — the
   entry was evicted and re-armed — a delivery may execute as fresh only
   if the evictor's fence proved no epoch-0 commit exists (the flag is
   set-once, and only after winning the old settle lock, so reading it
   is safe). *)
let rec handler ~tries =
  if tries <= 0 then Program.return None
  else
    let* e = read_epoch in
    if e = 0 then
      let* won = Retry.tas_aux (grant_lock 0) in
      if not won then handler ~tries:(tries - 1)
      else
        (* Hold window: one observable step between execution and
           Dedup.record, where the adversary can interleave the
           evictor. *)
        let* _ = Retry.read_aux (grant_lock 0) in
        let* committed = Retry.tas_aux (settle_lock 0) in
        if committed then Program.return (Some 0) else handler ~tries:(tries - 1)
    else
      let* free = Retry.read_aux free_flag in
      if not free then Program.return None
      else
        let* won = Retry.tas_aux (grant_lock 1) in
        if not won then handler ~tries:(tries - 1)
        else
          let* _ = Retry.read_aux (grant_lock 1) in
          let* committed = Retry.tas_aux (settle_lock 1) in
          if committed then Program.return (Some 0)
          else handler ~tries:(tries - 1)

let original = handler ~tries:1

(* Safe eviction: TAS the old epoch's settle lock.  Winning proves no
   delivery committed at epoch 0 AND forecloses every in-flight
   duplicate from committing there later — only then is the rid free to
   re-execute, so publish the flag.  Losing means a commit exists and
   the entry must keep absorbing replays: no flag, the new epoch stays
   dark.  Either way the epoch bumps (the window expired) and the
   evictor handles one late duplicate through the normal new-epoch
   path. *)
let evictor =
  let* won = Retry.tas_aux (settle_lock 0) in
  let* _ = if won then Retry.tas_aux free_flag else Program.return false in
  let* () = Program.write_word ~idx:0 ~value:1 in
  handler ~tries:1

(* Mutant: the evictor *reads* the settle lock instead of TASing it —
   the dedup entry is evicted on a mere observation that nothing has
   committed yet.  A delivery caught in its hold window can still
   commit at epoch 0 while the published flag lets a late duplicate
   re-execute at epoch 1: the same request grants twice.  The leading
   yields let fair round-robin land the original's commit before the
   evictor's read, so the baseline schedule is clean and the bug needs
   a genuine preemption inside the hold window. *)
let rec park k = if k = 0 then Program.return () else Program.bind Program.yield (fun () -> park (k - 1))

let unfenced_evictor =
  let* () = park 4 in
  let* settled = Retry.read_aux (settle_lock 0) in
  let* _ = if not settled then Retry.tas_aux free_flag else Program.return false in
  let* () = Program.write_word ~idx:0 ~value:1 in
  handler ~tries:1

let build ~evictor:evict ~n =
  if n < 2 then invalid_arg "Net_dedup.instance: n must be >= 2";
  let memory = Memory.create ~namespace:1 ~aux:((2 * max_epoch) + 1) ~words:1 () in
  let programs =
    Executor.init_programs n (fun pid ->
        if pid = 0 then original
        else if pid = 1 then evict
        else handler ~tries:2)
  in
  { Executor.memory; programs; label = Printf.sprintf "net-dedup(n=%d)" n }

let instance ~n ~seed:_ = build ~evictor ~n

let instance_evict ~n ~seed:_ = build ~evictor:unfenced_evictor ~n
