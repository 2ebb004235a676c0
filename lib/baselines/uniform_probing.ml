module Executor = Renaming_sched.Executor
module Memory = Renaming_sched.Memory
module Adversary = Renaming_sched.Adversary
module Plan_exec = Renaming_sched.Plan_exec
module Plan = Renaming_plan.Plan
module Stream = Renaming_rng.Stream

type config = { n : int; m : int; plan : Plan.t }

let make_config ?max_probes ~n ~m () =
  if n < 1 then invalid_arg "Uniform_probing: n must be >= 1";
  if m < n then invalid_arg "Uniform_probing: m must be >= n";
  { n; m; plan = Plan.uniform_probing ?max_probes ~m () }

let instance cfg ~stream =
  let memory = Memory.create ~namespace:cfg.m () in
  let programs =
    Executor.init_programs cfg.n (fun pid -> Plan_exec.program cfg.plan ~rng:(Stream.fork stream ~index:pid))
  in
  { Executor.memory; programs; label = Printf.sprintf "uniform-probing(m=%d)" cfg.m }

let run ?adversary cfg ~seed =
  let stream = Stream.create seed in
  let inst = instance cfg ~stream in
  let adversary = match adversary with Some a -> a | None -> Adversary.round_robin () in
  Executor.run ~adversary inst
