module Program = Renaming_sched.Program
module Executor = Renaming_sched.Executor
module Memory = Renaming_sched.Memory
module Adversary = Renaming_sched.Adversary
module Plan_exec = Renaming_sched.Plan_exec
module Plan = Renaming_plan.Plan
module Mathx = Renaming_plan.Mathx
module Stream = Renaming_rng.Stream
module Obs = Renaming_obs.Obs
open Program.Syntax

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

let program ?obs cfg ~rng =
  let ext = extension_size cfg in
  let first_phase =
    (* The sub-programs inherit the same scoped view, so their round /
       phase spans and counters land on the shared registry. *)
    match cfg.variant with
    | Geometric { ell } ->
      Loose_geometric.program ?obs { Loose_geometric.n = cfg.n; ell } ~rng
    | Clustered { ell } ->
      Loose_clustered.program ?obs { Loose_clustered.n = cfg.n; ell } ~rng
  in
  let* name = first_phase in
  match name with
  | Some nm -> Program.return (Some nm)
  | None ->
    (match obs with Some s -> Obs.s_begin s ~args:[ ("size", ext) ] "backup" | None -> ());
    let* name = Plan_exec.program (Plan.backup ~base:cfg.n ~size:ext) ~rng in
    (match obs with Some s -> Obs.s_end s "backup" | None -> ());
    (match name with
    | Some nm -> Program.return (Some nm)
    | None ->
      (* Extension exhausted (possible only when the first phase left
         more than [ext] unnamed — the event the corollary bounds).
         With m > n a free main-namespace register must exist. *)
      (match obs with Some s -> Obs.s_instant s "main-sweep" | None -> ());
      Plan_exec.program (Plan.linear_scan ~first:0 ~count:cfg.n))

let instance ?obs cfg ~stream =
  let memory = Memory.create ~namespace:(namespace cfg) () in
  let programs =
    Executor.init_programs cfg.n (fun pid ->
        let obs = Option.map (fun o -> Obs.scoped o ~pid) obs in
        program ?obs cfg ~rng:(Stream.fork stream ~index:pid))
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
