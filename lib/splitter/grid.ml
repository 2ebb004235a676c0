module Program = Renaming_sched.Program
module Executor = Renaming_sched.Executor
module Memory = Renaming_sched.Memory
module Adversary = Renaming_sched.Adversary
open Program.Syntax

type config = { n : int; side : int }

let make_config ?side ~n () =
  if n < 1 then invalid_arg "Grid.make_config: n must be >= 1";
  let side = match side with Some s -> s | None -> n in
  if side < n then invalid_arg "Grid.make_config: side must be >= n";
  { n; side }

let namespace cfg = cfg.side * (cfg.side + 1) / 2

let cell_index ~side ~r ~d =
  let diag = r + d in
  if r < 0 || d < 0 || diag > side - 1 then invalid_arg "Grid.cell_index: outside triangle";
  (diag * (diag + 1) / 2) + r

type instrumentation = {
  mutable splitter_violations : int;
  mutable boundary_exits : int;
}

let create_instrumentation () = { splitter_violations = 0; boundary_exits = 0 }

let program ?instr cfg ~pid =
  let side = cfg.side in
  let rec walk r d =
    if r + d > side - 1 then begin
      (* Off the triangle: only possible with more than [side]
         participants.  Fall back to a deterministic sweep so the run
         still terminates. *)
      (match instr with Some i -> i.boundary_exits <- i.boundary_exits + 1 | None -> ());
      Program.scan_names ~first:0 ~count:(namespace cfg)
    end
    else begin
      let cell = cell_index ~side ~r ~d in
      let* outcome = Splitter.enter ~base:(cell * Splitter.words_per_splitter) ~pid in
      match outcome with
      | Splitter.Right -> walk (r + 1) d
      | Splitter.Down -> walk r (d + 1)
      | Splitter.Stop ->
        let* won = Program.tas_name cell in
        if won then Program.return (Some cell)
        else begin
          (* Witness of a splitter violation — cannot happen. *)
          (match instr with
          | Some i -> i.splitter_violations <- i.splitter_violations + 1
          | None -> ());
          Program.scan_names ~first:0 ~count:(namespace cfg)
        end
    end
  in
  walk 0 0

let instance ?instr cfg =
  let cells = namespace cfg in
  let memory = Memory.create ~namespace:cells ~words:(cells * Splitter.words_per_splitter) () in
  let programs = Executor.init_programs cfg.n (fun pid -> program ?instr cfg ~pid) in
  { Executor.memory; programs; label = Printf.sprintf "ma-grid(n=%d,side=%d)" cfg.n cfg.side }

let run ?instr ?adversary cfg =
  let inst = instance ?instr cfg in
  let adversary = match adversary with Some a -> a | None -> Adversary.round_robin () in
  Executor.run ~adversary inst
