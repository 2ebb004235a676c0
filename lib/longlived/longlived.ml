module Program = Renaming_sched.Program
module Executor = Renaming_sched.Executor
module Memory = Renaming_sched.Memory
module Adversary = Renaming_sched.Adversary
module Stream = Renaming_rng.Stream
module Sample = Renaming_rng.Sample
module Summary = Renaming_stats.Summary
open Program.Syntax

type config = { sessions : int; rounds : int; epsilon : float; probe_cap : int option }

let make_config ?(epsilon = 0.5) ?(rounds = 8) ?probe_cap ~sessions () =
  if sessions < 1 then invalid_arg "Longlived.make_config: sessions must be >= 1";
  if rounds < 1 then invalid_arg "Longlived.make_config: rounds must be >= 1";
  if epsilon <= 0. then invalid_arg "Longlived.make_config: epsilon must be positive";
  (match probe_cap with
  | Some c when c < 0 -> invalid_arg "Longlived.make_config: probe_cap must be >= 0"
  | _ -> ());
  { sessions; rounds; epsilon; probe_cap }

let namespace_for ~sessions ~epsilon =
  max (sessions + 1) (int_of_float (ceil ((1. +. epsilon) *. float_of_int sessions)))

let namespace cfg = namespace_for ~sessions:cfg.sessions ~epsilon:cfg.epsilon

type stats = {
  mutable acquires : int;
  mutable releases : int;
  mutable release_failures : int;
  probe_summary : Summary.t;
  mutable max_held : int;
  mutable cap_exhaustions : int;
  mutable aborted_sessions : int;
}

let create_stats () =
  ref
    {
      acquires = 0;
      releases = 0;
      release_failures = 0;
      probe_summary = Summary.create ();
      max_held = 0;
      cap_exhaustions = 0;
      aborted_sessions = 0;
    }

let predicted_probes cfg = (1. +. cfg.epsilon) /. cfg.epsilon

let probe_cap cfg =
  match cfg.probe_cap with Some c -> c | None -> 64 * namespace cfg

(* One session process: [rounds] acquire/hold/release cycles.  The hold
   phase is a read of the held register (one step) — enough to give the
   adversary a window to interleave. *)
let program ?stats cfg ~held_counter ~rng =
  let m = namespace cfg in
  (* Statistics are updated in place; an update that needs no local
     state is a closed, statically allocated function. *)
  let bump f = match stats with Some s -> f !s | None -> () in
  let cap = probe_cap cfg in
  (* Random probing up to the cap, then one deterministic sweep.  The
     cap is unreachable in practice (success probability has a positive
     floor), but when it does trip — adversarial schedules, tiny
     namespaces, injected contention — the outcome is *structured*:
     the exhaustion is counted in [stats.cap_exhaustions], the sweep
     either recovers a name or fails, and a failed sweep aborts the
     session ([stats.aborted_sessions]) instead of looping forever. *)
  let rec acquire probes =
    if probes >= cap then begin
      bump (fun s -> s.cap_exhaustions <- s.cap_exhaustions + 1);
      let* name = Program.scan_names ~first:0 ~count:m in
      match name with
      | Some nm -> Program.return (Some (nm, probes + m))
      | None -> Program.return None
    end
    else
      let target = Sample.uniform_int rng m in
      let* won = Program.tas_name target in
      if won then Program.return (Some (target, probes + 1)) else acquire (probes + 1)
  in
  let rec cycle r =
    if r = 0 then Program.return None
    else
      let* acquired = acquire 0 in
      match acquired with
      | None ->
        (* Probe cap tripped and the recovery sweep found every register
           held: give the session up gracefully rather than livelock. *)
        bump (fun s -> s.aborted_sessions <- s.aborted_sessions + 1);
        Program.return None
      | Some (name, probes) ->
        incr held_counter;
        (match stats with
        | Some s ->
          let s = !s in
          s.acquires <- s.acquires + 1;
          Summary.add_int s.probe_summary probes;
          s.max_held <- max s.max_held !held_counter
        | None -> ());
        let* _ = Program.read_name name in
        decr held_counter;
        let* released = Program.release_name name in
        if released then bump (fun s -> s.releases <- s.releases + 1)
        else bump (fun s -> s.release_failures <- s.release_failures + 1);
        cycle (r - 1)
  in
  cycle cfg.rounds

let instance ?stats cfg ~stream =
  let memory = Memory.create ~namespace:(namespace cfg) () in
  let held_counter = ref 0 in
  let programs =
    Array.init cfg.sessions (fun pid ->
        program ?stats cfg ~held_counter ~rng:(Stream.fork stream ~index:pid))
  in
  {
    Executor.memory;
    programs;
    label = Printf.sprintf "longlived(sessions=%d,rounds=%d)" cfg.sessions cfg.rounds;
  }

let run ?stats ?adversary cfg ~seed =
  let stream = Stream.create seed in
  let inst = instance ?stats cfg ~stream in
  let adversary = match adversary with Some a -> a | None -> Adversary.round_robin () in
  Executor.run ~adversary inst
