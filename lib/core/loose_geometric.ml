module Program = Renaming_sched.Program
module Executor = Renaming_sched.Executor
module Memory = Renaming_sched.Memory
module Adversary = Renaming_sched.Adversary
module Retry = Renaming_sched.Retry
module Stream = Renaming_rng.Stream
module Sample = Renaming_rng.Sample
module Obs = Renaming_obs.Obs
module Metrics = Renaming_obs.Metrics
open Program.Syntax

type config = { n : int; ell : int }

let validate { n; ell } =
  if n < 4 then invalid_arg "Loose_geometric: n must be >= 4";
  if ell < 1 then invalid_arg "Loose_geometric: ell must be >= 1"

let rounds cfg =
  validate cfg;
  cfg.ell * Mathx.logloglog2_ceil cfg.n

let step_budget cfg = Mathx.pow_int 2 (rounds cfg + 1) - 2

let predicted_unnamed cfg =
  let loglog = Renaming_stats.Fit.eval_shape Renaming_stats.Fit.Log_log (float_of_int cfg.n) in
  2. *. float_of_int cfg.n /. (loglog ** float_of_int cfg.ell)

type instrumentation = { named_in_round : int array }

let create_instrumentation ?obs cfg =
  let instr = { named_in_round = Array.make (rounds cfg) 0 } in
  (match obs with
  | None -> ()
  | Some o -> Obs.vector o "loose-geometric/named_in_round" instr.named_in_round);
  instr

let program ?instr ?obs cfg ~rng =
  let total_rounds = rounds cfg in
  let probes, wins =
    match obs with
    | None -> (None, None)
    | Some s ->
      let o = Obs.scoped_obs s in
      (Some (Obs.counter o "loose-geometric/probes"), Some (Obs.counter o "loose-geometric/wins"))
  in
  let bump = function Some c -> Metrics.incr c | None -> () in
  let rec round i =
    if i > total_rounds then begin
      (match obs with Some s -> Obs.s_instant s "give-up" | None -> ());
      Program.return None
    end
    else begin
      (match obs with Some s -> Obs.s_begin s ~args:[ ("round", i) ] "round" | None -> ());
      step i (Mathx.pow_int 2 i)
    end
  and step i remaining =
    if remaining = 0 then begin
      (match obs with Some s -> Obs.s_end s "round" | None -> ());
      round (i + 1)
    end
    else begin
      let target = Sample.uniform_int rng cfg.n in
      bump probes;
      (match obs with Some s -> Obs.s_instant s ~args:[ ("target", target) ] "probe" | None -> ());
      let* won = Retry.tas_name target in
      if won then begin
        (match instr with
        | Some s -> s.named_in_round.(i - 1) <- s.named_in_round.(i - 1) + 1
        | None -> ());
        bump wins;
        (match obs with
        | Some s ->
          Obs.s_instant s ~args:[ ("round", i); ("name", target) ] "win";
          Obs.s_end s "round"
        | None -> ());
        Program.return (Some target)
      end
      else step i (remaining - 1)
    end
  in
  round 1

let instance ?instr ?obs cfg ~stream =
  validate cfg;
  let memory = Memory.create ~namespace:cfg.n () in
  let programs =
    Array.init cfg.n (fun pid ->
        let obs = Option.map (fun o -> Obs.scoped o ~pid) obs in
        program ?instr ?obs cfg ~rng:(Stream.fork stream ~index:pid))
  in
  { Executor.memory; programs; label = "loose-geometric" }

let run ?instr ?obs ?adversary cfg ~seed =
  let stream = Stream.create seed in
  let inst = instance ?instr ?obs cfg ~stream in
  let adversary = match adversary with Some a -> a | None -> Adversary.round_robin () in
  Executor.run ?obs ~adversary inst
