(* Record/replay debugging: capture an adversarial execution as a
   schedule, print it, and replay it bit-for-bit.

   The algorithm's coin flips are pinned by the seed; the schedule pins
   the only remaining nondeterminism — the adversary's decisions — so a
   "heisenbug" execution can be replayed exactly and inspected.

   Run with:  dune exec examples/replay_debugging.exe *)

module Directed = Renaming_sched.Directed
module Executor = Renaming_sched.Executor
module Adversary = Renaming_sched.Adversary
module Report = Renaming_sched.Report
module Stream = Renaming_rng.Stream
module Combined = Renaming_core.Combined

let cfg = { Renaming_core.Combined.n = 12; variant = Combined.Geometric { ell = 1 } }

let build () = Combined.instance cfg ~stream:(Stream.create 4242L)

let () =
  (* 1. Run under a nasty adversary, recording every decision from the
     executor's event stream. *)
  let choices = ref [] in
  let on_event e = Option.iter (fun c -> choices := c :: !choices) (Directed.choice_of_event e) in
  let crashing =
    Adversary.with_crashes
      ~base:(Adversary.uniform (Stream.fork_named (Stream.create 7L) ~name:"adv"))
      ~crash_times:[ (5, 2); (11, 9) ]
  in
  let original = Executor.run ~on_event ~adversary:crashing (build ()) in
  let schedule = List.rev !choices in
  Format.printf "original run:@.%a@.@." Report.pp original;

  (* 2. Replay strictly: same seeds + same schedule = identical
     execution, and a schedule that no longer fits raises a structured
     divergence instead of drifting. *)
  let run = Directed.run ~strict:true ~prefix:schedule (build ()) in
  let replayed =
    match run.Directed.outcome with
    | Directed.Finished report -> report
    | Directed.Raised e -> raise e
  in

  (* 3. Inspect the schedule; the replay's decision points tell a
     preemption (P) from a switch after a process finished (S); C is a
     crash and xk k steps in a row. *)
  Format.printf "schedule (%d decisions):@.%s@." (List.length schedule)
    (Directed.condensed ~points:run.Directed.points run.Directed.taken);
  let same =
    original.Report.assignment.Renaming_shm.Assignment.names
    = replayed.Report.assignment.Renaming_shm.Assignment.names
    && original.Report.ticks = replayed.Report.ticks
    && original.Report.crashed = replayed.Report.crashed
  in
  Format.printf "@.replay identical to original: %b@." same;
  assert same;
  Format.printf
    "Any assertion you add to the algorithm can now be debugged against this exact@.\
     execution — the adversarial schedule is data, not luck.@."
