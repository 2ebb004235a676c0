module Program = Renaming_sched.Program
module Executor = Renaming_sched.Executor
module Memory = Renaming_sched.Memory
module Retry = Renaming_sched.Retry
open Program.Syntax

let max_epoch = 2
let width = 2

(* Aux layout: per epoch [e], [width] grant locks then [width] settle
   locks; after those, one transfer-freedom flag per name.  Word 0 is
   the slice-epoch register. *)
let grant_lock e k = (2 * width * e) + k
let settle_lock e k = (2 * width * e) + width + k
let free_flag k = (2 * width * max_epoch) + k

let read_epoch =
  let* v = Program.read_word 0 in
  Program.return (max 0 (min v (max_epoch - 1)))

(* A grantor routed by the slice epoch.  At the old epoch it is the
   classic claim: grant lock, hold window, settle-lock commit.  At the
   new epoch it may grant a name only if the taker's fence proved the
   name transferred free (the flag is set-once and only ever set after
   the taker won the old epoch's settle lock, so reading it is safe —
   a set flag can never coexist with an old-epoch commit). *)
let rec grantor ~name ~tries =
  if tries <= 0 then Program.return None
  else
    let* e = read_epoch in
    if e = 0 then
      let* won = Retry.tas_aux (grant_lock 0 name) in
      if not won then grantor ~name ~tries:(tries - 1)
      else
        (* Hold window: one observable step between grant and commit, so
           the adversary can interleave the slice taker here. *)
        let* _ = Retry.read_aux (grant_lock 0 name) in
        let* committed = Retry.tas_aux (settle_lock 0 name) in
        if committed then Program.return (Some name) else grantor ~name ~tries:(tries - 1)
    else
      let* free = Retry.read_aux (free_flag name) in
      if not free then Program.return None
      else
        let* won = Retry.tas_aux (grant_lock 1 name) in
        if not won then grantor ~name ~tries:(tries - 1)
        else
          let* _ = Retry.read_aux (grant_lock 1 name) in
          let* committed = Retry.tas_aux (settle_lock 1 name) in
          if committed then Program.return (Some name)
          else grantor ~name ~tries:(tries - 1)

let owner = grantor ~name:0 ~tries:1

(* The slice taker: fence every slot of the old epoch — the settle-lock
   TAS per name; winning means that name was never committed at epoch 0
   and transfers free (publish the flag), losing means a live lease
   transfers and must never be regranted — then bump the slice epoch
   and regrant name 0 through the normal new-epoch path. *)
let fence_slot k =
  let* won = Retry.tas_aux (settle_lock 0 k) in
  if won then
    let* _ = Retry.tas_aux (free_flag k) in
    Program.return won
  else Program.return won

let taker =
  let* _ = fence_slot 0 in
  let* _ = fence_slot 1 in
  let* () = Program.write_word ~idx:0 ~value:1 in
  grantor ~name:0 ~tries:1

(* Mutant: the taker *reads* the old epoch's settle lock instead of
   TASing it — the slice is handed to the next epoch without actually
   fencing the old one.  An owner caught in its hold window can still
   commit at epoch 0 while the published flag lets the new epoch
   regrant the same name: two processes return name 0.  The leading
   yields let fair round-robin land the owner's commit before the
   taker's validation read, so the baseline schedule is clean and the
   bug needs a genuine preemption of the owner inside its hold
   window. *)
let rec park k = if k = 0 then Program.return () else Program.bind Program.yield (fun () -> park (k - 1))

let unfenced_fence_slot k =
  let* settled = Retry.read_aux (settle_lock 0 k) in
  if not settled then
    let* _ = Retry.tas_aux (free_flag k) in
    Program.return true
  else Program.return false

let unfenced_taker =
  let* () = park 4 in
  let* _ = unfenced_fence_slot 0 in
  let* _ = unfenced_fence_slot 1 in
  let* () = Program.write_word ~idx:0 ~value:1 in
  grantor ~name:0 ~tries:1

let build ~taker:take ~n =
  if n < 2 then invalid_arg "Shard_handoff.instance: n must be >= 2";
  let memory =
    Memory.create ~namespace:width ~aux:((2 * width * max_epoch) + width) ~words:1 ()
  in
  let programs =
    Executor.init_programs n (fun pid ->
        if pid = 0 then owner
        else if pid = 1 then take
        else grantor ~name:((pid - 2) mod width) ~tries:2)
  in
  { Executor.memory; programs; label = Printf.sprintf "shard-handoff(n=%d)" n }

let instance ~n ~seed:_ = build ~taker ~n

let instance_unfenced ~n ~seed:_ = build ~taker:unfenced_taker ~n
