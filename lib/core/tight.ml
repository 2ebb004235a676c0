module Program = Renaming_sched.Program
module Executor = Renaming_sched.Executor
module Memory = Renaming_sched.Memory
module Adversary = Renaming_sched.Adversary
module Tau_register = Renaming_device.Tau_register
module Retry = Renaming_sched.Retry
module Stream = Renaming_rng.Stream
module Sample = Renaming_rng.Sample
module Obs = Renaming_obs.Obs
module Metrics = Renaming_obs.Metrics
open Program.Syntax

type instrumentation = {
  requests_per_tau : int array;
  wins_per_round : int array;
  losses_per_round : int array;
  mutable reserve_entries : int;
  mutable safety_net_entries : int;
}

let create_instrumentation ?obs (params : Params.t) =
  let instr =
    {
      requests_per_tau = Array.make params.Params.total_taus 0;
      wins_per_round = Array.make (Params.round_count params) 0;
      losses_per_round = Array.make (Params.round_count params) 0;
      reserve_entries = 0;
      safety_net_entries = 0;
    }
  in
  (* The private counters double as registry entries: vectors read the
     arrays in place, gauges read the scalars, so a metrics snapshot
     sees whatever the instrumented run has recorded so far. *)
  (match obs with
  | None -> ()
  | Some o ->
    Obs.vector o "tight/requests_per_tau" instr.requests_per_tau;
    Obs.vector o "tight/wins_per_round" instr.wins_per_round;
    Obs.vector o "tight/losses_per_round" instr.losses_per_round;
    Obs.gauge o "tight/reserve_entries" (fun () -> float_of_int instr.reserve_entries);
    Obs.gauge o "tight/safety_net_entries" (fun () -> float_of_int instr.safety_net_entries));
  instr

let build_taus ?rule (params : Params.t) =
  Array.map
    (fun (name_base, tau) ->
      Tau_register.create ?rule ~base:name_base ~tau ~width:params.Params.width ())
    (Params.tau_geometry params)

let program ?instr ?obs (params : Params.t) ~rng =
  let nrounds = Params.round_count params in
  let probes, wins, losses =
    match obs with
    | None -> (None, None, None)
    | Some s ->
      let o = Obs.scoped_obs s in
      (* handles resolved once, at program construction *)
      ( Some (Obs.counter o "tight/probes"),
        Some (Obs.counter o "tight/wins"),
        Some (Obs.counter o "tight/losses") )
  in
  let bump = function Some c -> Metrics.incr c | None -> () in
  let rec rounds i =
    if i >= nrounds then reserve_scan ()
    else begin
      let round = params.Params.rounds.(i) in
      let tau_id = round.Params.first_tau + Sample.uniform_int rng round.Params.blocks in
      let bit = Sample.uniform_int rng params.Params.width in
      (match instr with
      | Some s -> s.requests_per_tau.(tau_id) <- s.requests_per_tau.(tau_id) + 1
      | None -> ());
      bump probes;
      (match obs with
      | Some s ->
        Obs.s_begin s ~args:[ ("round", i) ] "round";
        Obs.s_instant s ~args:[ ("tau", tau_id); ("bit", bit) ] "probe"
      | None -> ());
      let* won = Program.tau_request ~reg:tau_id ~bit in
      if won then begin
        (match instr with
        | Some s -> s.wins_per_round.(i) <- s.wins_per_round.(i) + 1
        | None -> ());
        bump wins;
        (match obs with
        | Some s ->
          Obs.s_instant s ~args:[ ("round", i) ] "win";
          Obs.s_end s "round"
        | None -> ());
        let* name =
          Retry.scan_names ~first:(Params.block_of_tau params tau_id).Params.name_base
            ~count:params.Params.tau ()
        in
        match name with
        | Some nm -> Program.return (Some nm)
        | None ->
          (* Impossible without crashes: at most τ confirmed winners
             compete for exactly τ slots.  Stay safe and move on. *)
          rounds (i + 1)
      end
      else begin
        (match instr with
        | Some s -> s.losses_per_round.(i) <- s.losses_per_round.(i) + 1
        | None -> ());
        bump losses;
        (match obs with
        | Some s ->
          Obs.s_instant s ~args:[ ("round", i) ] "lose";
          Obs.s_end s "round"
        | None -> ());
        rounds (i + 1)
      end
    end
  and reserve_scan () =
    (match instr with Some s -> s.reserve_entries <- s.reserve_entries + 1 | None -> ());
    (match obs with Some s -> Obs.s_begin s "reserve-scan" | None -> ());
    let* name =
      Retry.scan_names ~first:params.Params.reserve_base ~count:(Params.reserve_size params) ()
    in
    (match obs with Some s -> Obs.s_end s "reserve-scan" | None -> ());
    match name with
    | Some nm -> Program.return (Some nm)
    | None -> safety_net ()
  and safety_net () =
    (* Names burnt by crashed device winners live below reserve_base and
       are still free TAS registers; a full scan finds them. *)
    (match instr with Some s -> s.safety_net_entries <- s.safety_net_entries + 1 | None -> ());
    (match obs with Some s -> Obs.s_begin s "safety-net" | None -> ());
    let* name = Retry.scan_names ~first:0 ~count:params.Params.reserve_base () in
    (match obs with Some s -> Obs.s_end s "safety-net" | None -> ());
    Program.return name
  in
  rounds 0

let instance ?rule ?instr ?obs ~params ~stream () =
  let n = params.Params.n in
  let taus = build_taus ?rule params in
  let memory = Memory.create ~namespace:n ~taus () in
  let programs =
    Array.init n (fun pid ->
        let rng = Stream.fork stream ~index:pid in
        let obs = Option.map (fun o -> Obs.scoped o ~pid) obs in
        program ?instr ?obs params ~rng)
  in
  { Executor.memory; programs; label = "tight" }

let run ?rule ?instr ?obs ?adversary ~params ~seed () =
  let stream = Stream.create seed in
  let inst = instance ?rule ?instr ?obs ~params ~stream () in
  let adversary =
    match adversary with Some a -> a | None -> Adversary.round_robin ()
  in
  Executor.run ?obs ~adversary inst
