module Program = Renaming_sched.Program
module Executor = Renaming_sched.Executor
module Memory = Renaming_sched.Memory
module Adversary = Renaming_sched.Adversary
module Retry = Renaming_sched.Retry
module Stream = Renaming_rng.Stream
module Sample = Renaming_rng.Sample
open Program.Syntax

type config = { n : int; m : int; max_probes : int }

let make_config ?max_probes ~n ~m () =
  if n < 1 then invalid_arg "Uniform_probing: n must be >= 1";
  if m < n then invalid_arg "Uniform_probing: m must be >= n";
  let max_probes = match max_probes with Some p -> p | None -> 4 * m in
  if max_probes < 1 then invalid_arg "Uniform_probing: max_probes must be >= 1";
  { n; m; max_probes }

let program cfg ~rng =
  let rec probe remaining =
    if remaining = 0 then Retry.scan_names ~first:0 ~count:cfg.m ()
    else
      let target = Sample.uniform_int rng cfg.m in
      let* won = Retry.tas_name target in
      if won then Program.return (Some target) else probe (remaining - 1)
  in
  probe cfg.max_probes

let instance cfg ~stream =
  let memory = Memory.create ~namespace:cfg.m () in
  let programs =
    Array.init cfg.n (fun pid -> program cfg ~rng:(Stream.fork stream ~index:pid))
  in
  { Executor.memory; programs; label = Printf.sprintf "uniform-probing(m=%d)" cfg.m }

let run ?adversary cfg ~seed =
  let stream = Stream.create seed in
  let inst = instance cfg ~stream in
  let adversary = match adversary with Some a -> a | None -> Adversary.round_robin () in
  Executor.run ~adversary inst
