module Program = Renaming_sched.Program
module Executor = Renaming_sched.Executor
module Memory = Renaming_sched.Memory
module Retry = Renaming_sched.Retry
open Program.Syntax

(* Epochs modelled: one reclamation cycle. *)
let max_epoch = 2

let grant_lock e = 2 * e
let settle_lock e = (2 * e) + 1

let read_epoch =
  let* v = Program.read_word 0 in
  Program.return (max 0 (min v (max_epoch - 1)))

(* Read the epoch, grab its grant lock, hold, commit via the settle
   lock; [Some 0] iff committed, retrying a fresh epoch read up to
   [tries] times. *)
let rec claimant ~tries =
  if tries <= 0 then Program.return None
  else
    let* e = read_epoch in
    let* won = Retry.tas_aux (grant_lock e) in
    if not won then claimant ~tries:(tries - 1)
    else
      (* Hold window: one observable step between grant and commit, so
         the adversary can interleave the reclaimer here. *)
      let* _ = Retry.read_aux (grant_lock e) in
      let* committed = Retry.tas_aux (settle_lock e) in
      if committed then Program.return (Some 0) else claimant ~tries:(tries - 1)

let holder = claimant ~tries:1

(* Revoke the current epoch (settle-lock TAS) and advance the epoch
   register; never returns a name. *)
let reclaimer =
  let* e = read_epoch in
  let* revoked = Retry.tas_aux (settle_lock e) in
  if revoked && e + 1 < max_epoch then
    let* () = Program.write_word ~idx:0 ~value:(e + 1) in
    Program.return None
  else Program.return None

(* Mutant: validate by re-reading the epoch register instead of taking
   the settle lock.  Between the read and the return the reclaimer may
   revoke and advance — the stale holder then "commits" anyway. *)
let stale_holder =
  let* e = read_epoch in
  let* won = Retry.tas_aux (grant_lock e) in
  if not won then Program.return None
  else
    let* _ = Retry.read_aux (grant_lock e) in
    let* e' = read_epoch in
    if e' = e then Program.return (Some 0) else Program.return None

let build ~first ~n =
  if n < 2 then invalid_arg "Handoff.instance: n must be >= 2";
  let memory = Memory.create ~namespace:1 ~aux:(2 * max_epoch) ~words:1 () in
  let programs =
    Executor.init_programs n (fun pid ->
        if pid = 0 then first
        else if pid = 1 then reclaimer
        else claimant ~tries:2)
  in
  { Executor.memory; programs; label = Printf.sprintf "lease-handoff(n=%d)" n }

let instance ~n ~seed:_ = build ~first:holder ~n

let instance_stale_write ~n ~seed:_ = build ~first:stale_holder ~n
