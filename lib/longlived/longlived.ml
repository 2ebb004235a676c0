module Program = Renaming_sched.Program
module Executor = Renaming_sched.Executor
module Memory = Renaming_sched.Memory
module Adversary = Renaming_sched.Adversary
module Stream = Renaming_rng.Stream
module Sample = Renaming_rng.Sample
module Summary = Renaming_stats.Summary
module Op = Renaming_sched.Op

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

(* One session process: [rounds] acquire/hold/release cycles.  The hold
   phase is a read of the held register (one step) — enough to give the
   adversary a window to interleave.

   Acquiring probes uniform registers up to the cap, then sweeps the
   namespace once.  The cap is unreachable in practice (success
   probability has a positive floor), but when it does trip
   (adversarial schedules, tiny namespaces, injected contention) the
   outcome is *structured*: the exhaustion is counted in
   [stats.cap_exhaustions], the sweep either recovers a name or fails,
   and a failed sweep aborts the session ([stats.aborted_sessions])
   instead of looping forever.

   A process is one mutable record.  [phase] says what the operation in
   flight answers: a probe of [target] (the [probes]-th of this
   acquire's probes counted from 0), the sweep's TAS of [target] after
   [probes] probes, or the hold's read or the release of the held name
   [target].  [rounds_left] counts this cycle and the ones after it, and
   [resume] is the one continuation every step parks with. *)
type phase = Probe | Sweep | Hold | Release

type state = {
  stats : stats ref option;
  held_counter : int ref;
  rng : Renaming_rng.Xoshiro.t;
  m : int;
  cap : int;
  mutable phase : phase;
  mutable rounds_left : int;
  mutable probes : int;
  mutable target : int;
  mutable resume : Op.response -> int option Program.t;
}

(* Statistics are updated in place; an update that needs no local state
   is a closed, statically allocated function. *)
let bump st f = match st.stats with Some s -> f !s | None -> ()

let bad_response op resp =
  Format.kasprintf failwith "Longlived: operation %a got response %a" Op.pp op Op.pp_response resp

let rec cycle st r =
  if r = 0 then Program.Done None
  else begin
    st.rounds_left <- r;
    acquire st 0
  end

and acquire st probes =
  st.probes <- probes;
  if probes >= st.cap then begin
    bump st (fun s -> s.cap_exhaustions <- s.cap_exhaustions + 1);
    st.phase <- Sweep;
    st.target <- 0;
    sweep st
  end
  else begin
    st.phase <- Probe;
    st.target <- Sample.uniform_int st.rng st.m;
    Program.Step (Op.Tas_name st.target, st.resume)
  end

and sweep st =
  if st.target < st.m then Program.Step (Op.Tas_name st.target, st.resume)
  else begin
    (* The recovery sweep found every register held: give the session
       up gracefully rather than livelock. *)
    bump st (fun s -> s.aborted_sessions <- s.aborted_sessions + 1);
    Program.Done None
  end

and acquired st probes =
  incr st.held_counter;
  (match st.stats with
  | Some s ->
    let s = !s in
    s.acquires <- s.acquires + 1;
    Summary.add_int s.probe_summary probes;
    s.max_held <- max s.max_held !(st.held_counter)
  | None -> ());
  st.phase <- Hold;
  Program.Step (Op.Read_name st.target, st.resume)

let on_response st resp =
  match (st.phase, resp) with
  | Probe, Op.Bool true -> acquired st (st.probes + 1)
  | Probe, Op.Bool false -> acquire st (st.probes + 1)
  | Sweep, Op.Bool true -> acquired st (st.probes + st.m)
  | Sweep, Op.Bool false ->
    st.target <- st.target + 1;
    sweep st
  | Hold, Op.Bool _ ->
    decr st.held_counter;
    st.phase <- Release;
    Program.Step (Op.Release_name st.target, st.resume)
  | Release, Op.Bool released ->
    if released then bump st (fun s -> s.releases <- s.releases + 1)
    else bump st (fun s -> s.release_failures <- s.release_failures + 1);
    cycle st (st.rounds_left - 1)
  | (Probe | Sweep), resp -> bad_response (Op.Tas_name st.target) resp
  | Hold, resp -> bad_response (Op.Read_name st.target) resp
  | Release, resp -> bad_response (Op.Release_name st.target) resp

let unset _ = Program.Done None

(* The program is parked at the first cycle's first step, and its
   continuation restores the record as it stood then: a crash-restart
   reruns the session from the top, as {!Executor.run} expects. *)
let program ?stats cfg ~held_counter ~rng =
  let st =
    {
      stats;
      held_counter;
      rng;
      m = namespace cfg;
      cap = (match cfg.probe_cap with Some c -> c | None -> 64 * namespace cfg);
      phase = Probe;
      rounds_left = 0;
      probes = 0;
      target = 0;
      resume = unset;
    }
  in
  st.resume <- on_response st;
  match cycle st cfg.rounds with
  | Program.Done _ as finished -> finished
  | Program.Step (op, _) ->
    let phase = st.phase and rounds_left = st.rounds_left and probes = st.probes in
    let target = st.target in
    Program.Step
      ( op,
        fun resp ->
          st.phase <- phase;
          st.rounds_left <- rounds_left;
          st.probes <- probes;
          st.target <- target;
          on_response st resp )

let instance ?stats cfg ~stream =
  let memory = Memory.create ~namespace:(namespace cfg) () in
  let held_counter = ref 0 in
  let programs =
    Executor.init_programs cfg.sessions (fun pid ->
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
