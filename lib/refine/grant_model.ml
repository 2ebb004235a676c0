module Executor = Renaming_sched.Executor
module Memory = Renaming_sched.Memory
module Program = Renaming_sched.Program

(* Memory layout: word 0 is the announce register, word 1+i is client
   i's table entry (1 = granted); aux i is name i's settle lock.  The
   namespace array exists only to size the spec ([Memory.namespace] =
   n-1 names); nobody TASes it. *)

let announce ev = Program.write_word ~idx:0 ~value:(Obs_event.encode ev)

let client i =
  let open Program.Syntax in
  (* Crash-recovery re-runs the program from scratch, so the grant
     sequence is guarded by the publish word: once a previous
     incarnation has published, re-announcing would race the reclaimer
     (its Reclaimed can land between our Invoked stutter and Granted,
     and the re-announced grant is then inexplicable to the spec). *)
  let* published = Program.read_word (1 + i) in
  let* () =
    if published = 1 then Program.return ()
    else
      let* () = announce (Obs_event.Invoked { session = i }) in
      let* () = announce (Obs_event.Granted { session = i; name = i }) in
      (* Publish after announcing, so the reclaimer can only reclaim a
         grant the spec has already heard. *)
      Program.write_word ~idx:(1 + i) ~value:1
  in
  (* Hold window: the preemption point the mutant needs. *)
  let* () = Program.yield in
  let* settled = Program.try_tas_aux i in
  match settled with
  | Ok true ->
      let* () = announce (Obs_event.Released { session = i; name = i }) in
      Program.return None
  | Ok false | Error `Faulted ->
      (* The reclaimer settled the name first (or the TAS was hit by a
         fault and conveyed nothing): the client no longer owns its
         fate and must not announce. *)
      Program.return None

let reclaimer ~clients ~mutant =
  let open Program.Syntax in
  let rec yields k =
    if k = 0 then Program.return () else Program.bind Program.yield (fun () -> yields (k - 1))
  in
  let rec sweep i =
    if i >= clients then Program.return None
    else
      let* occupied = Program.read_word (1 + i) in
      if occupied <> 1 then sweep (i + 1)
      else
        let* settled = Program.try_tas_aux i in
        match settled with
        | Ok true ->
            let* () = announce (Obs_event.Reclaimed { session = i; name = i }) in
            if mutant then
              (* The bug: hand the reclaimed name straight back to a
                 session that never re-invoked.  Inexplicable to the
                 centralized spec, invisible to every per-run monitor. *)
              let* () = announce (Obs_event.Granted { session = i; name = i }) in
              sweep (i + 1)
            else sweep (i + 1)
        | Ok false | Error `Faulted -> sweep (i + 1)
  in
  (* Grace period: six yields per client round keep fair round-robin
     clean — every client reaches its settle TAS (6th step) before the
     reclaimer's first one (8th). *)
  let* () = yields 6 in
  sweep 0

let make ~n ~mutant label =
  if n < 2 then invalid_arg "Grant_model: n must be >= 2";
  let clients = n - 1 in
  let memory = Memory.create ~namespace:clients ~aux:clients ~words:(1 + clients) () in
  let programs =
    Executor.init_programs n (fun pid -> if pid < clients then client pid else reclaimer ~clients ~mutant)
  in
  { Executor.memory; programs; label }

let instance ~n ~seed:_ = make ~n ~mutant:false "refine-grant"
let instance_regrant ~n ~seed:_ = make ~n ~mutant:true "mutant-refine-regrant"
