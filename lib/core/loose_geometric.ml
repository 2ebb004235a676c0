module Executor = Renaming_sched.Executor
module Memory = Renaming_sched.Memory
module Adversary = Renaming_sched.Adversary
module Plan_exec = Renaming_sched.Plan_exec
module Plan = Renaming_plan.Plan
module Stream = Renaming_rng.Stream
module Obs = Renaming_obs.Obs

type config = { n : int; ell : int }

let validate { n; ell } =
  if n < 4 then invalid_arg "Loose_geometric: n must be >= 4";
  if ell < 1 then invalid_arg "Loose_geometric: ell must be >= 1"

let plan cfg =
  validate cfg;
  Plan.loose_geometric ~n:cfg.n ~ell:cfg.ell

let rounds cfg = Array.length (plan cfg)
let step_budget cfg = Plan.probe_budget (plan cfg)

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

let stage ?instr () =
  let named = Option.map (fun s -> s.named_in_round) instr in
  Plan_exec.Rounds { prefix = "loose-geometric"; span = "round"; first = 1; named }

let instance ?instr ?obs cfg ~stream =
  let plan = plan cfg and stages = [ (0, stage ?instr ()) ] in
  let memory = Memory.create ~namespace:cfg.n () in
  let programs =
    Executor.init_programs cfg.n (fun pid ->
        let obs = Option.map (fun o -> Obs.scoped o ~pid) obs in
        let spans = Plan_exec.spans ?obs stages in
        Plan_exec.program ?spans plan ~rng:(Stream.fork stream ~index:pid))
  in
  { Executor.memory; programs; label = "loose-geometric" }

let run ?instr ?obs ?adversary cfg ~seed =
  let stream = Stream.create seed in
  let inst = instance ?instr ?obs cfg ~stream in
  let adversary = match adversary with Some a -> a | None -> Adversary.round_robin () in
  Executor.run ?obs ~adversary inst
