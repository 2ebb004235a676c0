module Executor = Renaming_sched.Executor
module Memory = Renaming_sched.Memory
module Adversary = Renaming_sched.Adversary
module Plan_exec = Renaming_sched.Plan_exec
module Plan = Renaming_plan.Plan
module Mathx = Renaming_plan.Mathx
module Stream = Renaming_rng.Stream
module Obs = Renaming_obs.Obs

type variant = Geometric of { ell : int } | Clustered of { ell : int }

type config = { n : int; variant : variant }

let extension_size cfg =
  let nf = float_of_int cfg.n in
  let raw =
    match cfg.variant with
    | Geometric { ell } ->
      let loglog = float_of_int (Mathx.loglog2_ceil cfg.n) in
      2. *. nf /. (loglog ** float_of_int ell)
    | Clustered { ell } ->
      let logn = Mathx.log2f nf in
      2. *. nf /. (logn ** float_of_int ell)
  in
  max 2 (int_of_float (ceil raw))

let namespace cfg = cfg.n + extension_size cfg

let predicted_steps cfg =
  match cfg.variant with
  | Geometric { ell } ->
    float_of_int (Loose_geometric.step_budget { Loose_geometric.n = cfg.n; ell })
    +. float_of_int (Mathx.loglog2_ceil cfg.n * 4)
  | Clustered { ell } ->
    float_of_int (Loose_clustered.step_budget { Loose_clustered.n = cfg.n; ell })
    +. float_of_int (Mathx.loglog2_ceil cfg.n * 4)

let instance ?obs cfg ~stream =
  let ext = extension_size cfg in
  let first, rounds =
    match cfg.variant with
    | Geometric { ell } -> (Plan.loose_geometric ~n:cfg.n ~ell, Loose_geometric.stage ())
    | Clustered { ell } -> (Plan.loose_clustered ~n:cfg.n ~ell (), Loose_clustered.stage ())
  in
  let plan = Plan.corollary ~first ~n:cfg.n ~ext in
  let stages =
    [
      (0, rounds);
      (Array.length first, Plan_exec.Span ("backup", [ ("size", ext) ]));
      (Array.length plan - 1, Plan_exec.Instant "main-sweep");
    ]
  in
  let memory = Memory.create ~namespace:(namespace cfg) () in
  let programs =
    Executor.init_programs cfg.n (fun pid ->
        let obs = Option.map (fun o -> Obs.scoped o ~pid) obs in
        let spans = Plan_exec.spans ?obs stages in
        Plan_exec.program ?spans plan ~rng:(Stream.fork stream ~index:pid))
  in
  let label =
    match cfg.variant with
    | Geometric { ell } -> Printf.sprintf "combined-geometric(l=%d)" ell
    | Clustered { ell } -> Printf.sprintf "combined-clustered(l=%d)" ell
  in
  { Executor.memory; programs; label }

let run ?obs ?adversary cfg ~seed =
  let stream = Stream.create seed in
  let inst = instance ?obs cfg ~stream in
  let adversary = match adversary with Some a -> a | None -> Adversary.round_robin () in
  Executor.run ?obs ~adversary inst
