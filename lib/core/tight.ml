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
module Op = Renaming_sched.Op

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
    (fun (_, tau) -> Tau_register.create ?rule ~tau ~width:params.Params.width ())
    (Params.tau_geometry params)

(* One process.  [phase] says what the operation in flight answers: the
   τ-request of round [round] to register [tau] (its submit, then polls
   of [poll]), or a TAS of register [first + cursor] in a scan of
   [count] registers from [first] (the won block's names, the reserve or
   the safety net).  [resume] is the one continuation every step parks
   with. *)
type phase = Request | Block_scan | Reserve_scan | Safety_scan

type state = {
  params : Params.t;
  nrounds : int;
  rng : Renaming_rng.Xoshiro.t;
  instr : instrumentation option;
  obs : Obs.scoped option;
  probes : Metrics.counter option;
  wins : Metrics.counter option;
  losses : Metrics.counter option;
  mutable phase : phase;
  mutable round : int;
  mutable tau : int;
  mutable poll : Op.t;
  mutable first : int;
  mutable count : int;
  mutable cursor : int;
  mutable resume : Op.response -> int option Program.t;
}

let bump = function Some c -> Metrics.incr c | None -> ()

let bad_response op resp =
  Format.kasprintf failwith "Tight: operation %a got response %a" Op.pp op
    Op.pp_response resp

(* Round [i]: draw a block and a device bit, and submit the request. *)
let rec round st i =
  if i >= st.nrounds then reserve_scan st
  else begin
    let params = st.params in
    let r = params.Params.rounds.(i) in
    let tau_id = r.Params.first_tau + Sample.uniform_int st.rng r.Params.blocks in
    let bit = Sample.uniform_int st.rng params.Params.width in
    (match st.instr with
    | Some s -> s.requests_per_tau.(tau_id) <- s.requests_per_tau.(tau_id) + 1
    | None -> ());
    bump st.probes;
    (match st.obs with
    | Some s ->
      Obs.s_begin s ~args:[ ("round", i) ] "round";
      Obs.s_instant s ~args:[ ("tau", tau_id); ("bit", bit) ] "probe"
    | None -> ());
    st.phase <- Request;
    st.round <- i;
    st.tau <- tau_id;
    st.poll <- Op.Tau_poll tau_id;
    Program.Step (Op.Tau_submit { reg = tau_id; bit }, st.resume)
  end

(* The device confirmed the bit: scan the block's τ names, one of which
   must be free without crashes. *)
and won_bit st =
  let i = st.round in
  (match st.instr with Some s -> s.wins_per_round.(i) <- s.wins_per_round.(i) + 1 | None -> ());
  bump st.wins;
  (match st.obs with
  | Some s ->
    Obs.s_instant s ~args:[ ("round", i) ] "win";
    Obs.s_end s "round"
  | None -> ());
  scan st Block_scan
    ~first:(Params.block_of_tau st.params st.tau).Params.name_base
    ~count:st.params.Params.tau

and lost_bit st =
  let i = st.round in
  (match st.instr with
  | Some s -> s.losses_per_round.(i) <- s.losses_per_round.(i) + 1
  | None -> ());
  bump st.losses;
  (match st.obs with
  | Some s ->
    Obs.s_instant s ~args:[ ("round", i) ] "lose";
    Obs.s_end s "round"
  | None -> ());
  round st (i + 1)

and reserve_scan st =
  (match st.instr with Some s -> s.reserve_entries <- s.reserve_entries + 1 | None -> ());
  (match st.obs with Some s -> Obs.s_begin s "reserve-scan" | None -> ());
  scan st Reserve_scan ~first:st.params.Params.reserve_base
    ~count:(Params.reserve_size st.params)

(* Names burnt by crashed device winners live below reserve_base and
   are still free TAS registers; a full scan finds them. *)
and safety_net st =
  (match st.instr with Some s -> s.safety_net_entries <- s.safety_net_entries + 1 | None -> ());
  (match st.obs with Some s -> Obs.s_begin s "safety-net" | None -> ());
  scan st Safety_scan ~first:0 ~count:st.params.Params.reserve_base

and scan st phase ~first ~count =
  st.phase <- phase;
  st.first <- first;
  st.count <- count;
  st.cursor <- 0;
  probe st

and probe st =
  if st.cursor >= st.count then scanned st None
  else Program.Step (Op.Tas_name (st.first + st.cursor), st.resume)

and scanned st name =
  match st.phase with
  | Block_scan -> (
    match name with
    | Some _ -> Program.Done name
    | None ->
      (* Impossible without crashes: at most τ confirmed winners
         compete for exactly τ slots.  Stay safe and move on. *)
      round st (st.round + 1))
  | Reserve_scan -> (
    (match st.obs with Some s -> Obs.s_end s "reserve-scan" | None -> ());
    match name with Some _ -> Program.Done name | None -> safety_net st)
  | Safety_scan ->
    (match st.obs with Some s -> Obs.s_end s "safety-net" | None -> ());
    Program.Done name
  | Request -> invalid_arg "Tight: scan result outside a scan"

(* A scan's TAS is won, or lost (also after all its retries faulted). *)
let scan_answer st won =
  if won then scanned st (Some (st.first + st.cursor))
  else begin
    st.cursor <- st.cursor + 1;
    probe st
  end

let on_response st resp =
  match st.phase with
  | Request -> (
    match resp with
    | Op.Unit | Op.Tau Tau_register.Pending ->
      Program.Step (st.poll, st.resume)
    | Op.Tau Tau_register.Won_bit -> won_bit st
    | Op.Tau Tau_register.Lost_bit -> lost_bit st
    | resp -> bad_response st.poll resp)
  | Block_scan | Reserve_scan | Safety_scan -> (
    match resp with
    | Op.Bool won -> scan_answer st won
    | Op.Faulted ->
      Retry.tas_name_after_fault (st.first + st.cursor) (scan_answer st)
    | resp -> bad_response (Op.Tas_name (st.first + st.cursor)) resp)

let restore st ~from =
  st.phase <- from.phase;
  st.round <- from.round;
  st.tau <- from.tau;
  st.poll <- from.poll;
  st.first <- from.first;
  st.count <- from.count;
  st.cursor <- from.cursor

let unset _ = Program.Done None

(* The program is parked at the first round's submit, and its
   continuation restores the record as it stood then: a crash-restart
   reruns the process from the top, as {!Executor.run} expects. *)
let program ?instr ?obs (params : Params.t) ~rng =
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
  let st =
    {
      params;
      nrounds = Params.round_count params;
      rng;
      instr;
      obs;
      probes;
      wins;
      losses;
      phase = Request;
      round = 0;
      tau = 0;
      poll = Op.Yield;
      first = 0;
      count = 0;
      cursor = 0;
      resume = unset;
    }
  in
  st.resume <- on_response st;
  match round st 0 with
  | Program.Done _ as finished -> finished
  | Program.Step (op, _) ->
    let start = { st with resume = unset } in
    Program.Step
      ( op,
        fun resp ->
          restore st ~from:start;
          on_response st resp )

let instance ?rule ?instr ?obs ~params ~stream () =
  let n = params.Params.n in
  let taus = build_taus ?rule params in
  let memory = Memory.create ~namespace:n ~taus ~processes:n () in
  let programs =
    Executor.init_programs n (fun pid ->
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
