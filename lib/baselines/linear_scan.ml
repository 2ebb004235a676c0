module Executor = Renaming_sched.Executor
module Memory = Renaming_sched.Memory
module Adversary = Renaming_sched.Adversary
module Plan_exec = Renaming_sched.Plan_exec
module Plan = Renaming_plan.Plan

type config = { n : int; m : int }

let instance { n; m } =
  if n < 1 then invalid_arg "Linear_scan: n must be >= 1";
  if m < n then invalid_arg "Linear_scan: m must be >= n";
  let memory = Memory.create ~namespace:m () in
  let plan = Plan.linear_scan ~first:0 ~count:m in
  let programs = Executor.init_programs n (fun _ -> Plan_exec.program plan) in
  { Executor.memory; programs; label = "linear-scan" }

let run ?adversary cfg =
  let inst = instance cfg in
  let adversary = match adversary with Some a -> a | None -> Adversary.round_robin () in
  Executor.run ~adversary inst
