module Program = Renaming_sched.Program
module Retry = Renaming_sched.Retry
module Executor = Renaming_sched.Executor
module Memory = Renaming_sched.Memory
module Adversary = Renaming_sched.Adversary

type config = { n : int; m : int }

let validate { n; m } =
  if n < 1 then invalid_arg "Linear_scan: n must be >= 1";
  if m < n then invalid_arg "Linear_scan: m must be >= n"

let program cfg =
  validate cfg;
  Retry.scan_names ~first:0 ~count:cfg.m ()

let instance cfg =
  validate cfg;
  let memory = Memory.create ~namespace:cfg.m () in
  let programs = Array.init cfg.n (fun _ -> program cfg) in
  { Executor.memory; programs; label = "linear-scan" }

let run ?adversary cfg =
  let inst = instance cfg in
  let adversary = match adversary with Some a -> a | None -> Adversary.round_robin () in
  Executor.run ~adversary inst
