module Mathx = Renaming_plan.Mathx
module Program = Renaming_sched.Program
module Executor = Renaming_sched.Executor
module Memory = Renaming_sched.Memory
module Adversary = Renaming_sched.Adversary
module Retry = Renaming_sched.Retry
module Stream = Renaming_rng.Stream
module Sample = Renaming_rng.Sample
open Program.Syntax

type config = { k : int; ell : int; epsilon : float }

let make_config ?(ell = 2) ?(epsilon = 1.0) ~k () =
  if k < 1 then invalid_arg "Adaptive.make_config: k must be >= 1";
  if ell < 1 then invalid_arg "Adaptive.make_config: ell must be >= 1";
  if epsilon <= 0. then invalid_arg "Adaptive.make_config: epsilon must be positive";
  { k; ell; epsilon }

let levels cfg = Mathx.log2_ceil (max 2 cfg.k) + 3

let block_size cfg j =
  let est = Mathx.pow_int 2 j in
  max 2 (int_of_float (ceil ((1. +. cfg.epsilon) *. float_of_int est)))

let block_bounds cfg =
  let l = levels cfg in
  let bounds = Array.make l (0, 0) in
  let base = ref 0 in
  for j = 0 to l - 1 do
    let size = block_size cfg j in
    bounds.(j) <- (!base, size);
    base := !base + size
  done;
  bounds

let namespace cfg =
  let bounds = block_bounds cfg in
  let base, size = bounds.(Array.length bounds - 1) in
  base + size

(* Budget for one level: the Lemma 6 step budget under the estimate
   2^j, i.e. sum of 2^i over ell * logloglog(2^j) rounds. *)
let level_budget cfg j =
  let est = max 4 (Mathx.pow_int 2 j) in
  let rounds = cfg.ell * Mathx.logloglog2_ceil est in
  Mathx.pow_int 2 (rounds + 1) - 2

let program cfg ~rng =
  let bounds = block_bounds cfg in
  let last = Array.length bounds - 1 in
  let rec level j =
    if j > last then
      (* Unconditional termination: sweep the final (oversized) block,
         then the whole namespace. *)
      let base, size = bounds.(last) in
      let* name = Retry.scan_names ~first:base ~count:size () in
      (match name with
      | Some nm -> Program.return (Some nm)
      | None -> Retry.scan_names ~first:0 ~count:base ())
    else begin
      let base, size = bounds.(j) in
      let budget = level_budget cfg j in
      let rec probe remaining =
        if remaining = 0 then level (j + 1)
        else
          let target = base + Sample.uniform_int rng size in
          let* won = Retry.tas_name target in
          if won then Program.return (Some target) else probe (remaining - 1)
      in
      probe budget
    end
  in
  level 0

let instance cfg ~stream =
  let memory = Memory.create ~namespace:(namespace cfg) () in
  let programs =
    Executor.init_programs cfg.k (fun pid -> program cfg ~rng:(Stream.fork stream ~index:pid))
  in
  { Executor.memory; programs; label = Printf.sprintf "adaptive(k=%d)" cfg.k }

let run ?adversary cfg ~seed =
  let stream = Stream.create seed in
  let inst = instance cfg ~stream in
  let adversary = match adversary with Some a -> a | None -> Adversary.round_robin () in
  Executor.run ~adversary inst

let max_name_used report =
  Array.fold_left max (-1) report.Renaming_sched.Report.assignment.Renaming_shm.Assignment.names
