module Plan = Renaming_plan.Plan
module Plan_exec = Renaming_sched.Plan_exec
module Executor = Renaming_sched.Executor
module Memory = Renaming_sched.Memory
module Adversary = Renaming_sched.Adversary
module Stream = Renaming_rng.Stream

type config = { k : int; ell : int; epsilon : float }

let make_config ?(ell = 2) ?(epsilon = 1.0) ~k () =
  if k < 1 then invalid_arg "Adaptive.make_config: k must be >= 1";
  if ell < 1 then invalid_arg "Adaptive.make_config: ell must be >= 1";
  if epsilon <= 0. then invalid_arg "Adaptive.make_config: epsilon must be positive";
  { k; ell; epsilon }

let plan cfg = Plan.adaptive ~k:cfg.k ~ell:cfg.ell ~epsilon:cfg.epsilon

let namespace cfg =
  Array.fold_left
    (fun m (Plan.Probe { base; size; _ } | Plan.Sweep { base; size }) -> max m (base + size))
    0 (plan cfg)

let instance cfg ~stream =
  let plan = plan cfg in
  let memory = Memory.create ~namespace:(namespace cfg) () in
  let programs =
    Executor.init_programs cfg.k (fun pid ->
        Plan_exec.program plan ~rng:(Stream.fork stream ~index:pid))
  in
  { Executor.memory; programs; label = Printf.sprintf "adaptive(k=%d)" cfg.k }

let run ?adversary cfg ~seed =
  let stream = Stream.create seed in
  let inst = instance cfg ~stream in
  let adversary = match adversary with Some a -> a | None -> Adversary.round_robin () in
  Executor.run ~adversary inst

let max_name_used report =
  Array.fold_left max (-1) report.Renaming_sched.Report.assignment.Renaming_shm.Assignment.names
