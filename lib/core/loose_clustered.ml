module Executor = Renaming_sched.Executor
module Memory = Renaming_sched.Memory
module Adversary = Renaming_sched.Adversary
module Plan_exec = Renaming_sched.Plan_exec
module Plan = Renaming_plan.Plan
module Mathx = Renaming_plan.Mathx
module Stream = Renaming_rng.Stream
module Obs = Renaming_obs.Obs

type config = { n : int; ell : int }

let validate { n; ell } =
  if n < 4 then invalid_arg "Loose_clustered: n must be >= 4";
  if ell < 1 then invalid_arg "Loose_clustered: ell must be >= 1"

let plan cfg =
  validate cfg;
  Plan.loose_clustered ~n:cfg.n ~ell:cfg.ell ()

let phases cfg = Array.length (plan cfg)
let step_budget cfg = Plan.probe_budget (plan cfg)
let steps_per_phase cfg = step_budget cfg / phases cfg

let predicted_unnamed cfg =
  let logn = Mathx.log2f (float_of_int cfg.n) in
  float_of_int cfg.n /. (logn ** float_of_int (2 * cfg.ell))

type instrumentation = { named_in_phase : int array }

let create_instrumentation ?obs cfg =
  let instr = { named_in_phase = Array.make (phases cfg) 0 } in
  (match obs with
  | None -> ()
  | Some o -> Obs.vector o "loose-clustered/named_in_phase" instr.named_in_phase);
  instr

let stage ?instr () =
  let named = Option.map (fun s -> s.named_in_phase) instr in
  Plan_exec.Rounds { prefix = "loose-clustered"; span = "phase"; first = 0; named }

let instance ?instr ?obs cfg ~stream =
  let plan = plan cfg and stages = [ (0, stage ?instr ()) ] in
  let memory = Memory.create ~namespace:cfg.n () in
  let programs =
    Executor.init_programs cfg.n (fun pid ->
        let obs = Option.map (fun o -> Obs.scoped o ~pid) obs in
        let spans = Plan_exec.spans ?obs stages in
        Plan_exec.program ?spans plan ~rng:(Stream.fork stream ~index:pid))
  in
  { Executor.memory; programs; label = "loose-clustered" }

let run ?instr ?obs ?adversary cfg ~seed =
  let stream = Stream.create seed in
  let inst = instance ?instr ?obs cfg ~stream in
  let adversary = match adversary with Some a -> a | None -> Adversary.round_robin () in
  Executor.run ?obs ~adversary inst
