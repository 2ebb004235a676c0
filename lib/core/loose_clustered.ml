module Program = Renaming_sched.Program
module Executor = Renaming_sched.Executor
module Memory = Renaming_sched.Memory
module Adversary = Renaming_sched.Adversary
module Retry = Renaming_sched.Retry
module Stream = Renaming_rng.Stream
module Sample = Renaming_rng.Sample
module Obs = Renaming_obs.Obs
module Metrics = Renaming_obs.Metrics
open Program.Syntax

type config = { n : int; ell : int }

let validate { n; ell } =
  if n < 4 then invalid_arg "Loose_clustered: n must be >= 4";
  if ell < 1 then invalid_arg "Loose_clustered: ell must be >= 1"

let phases cfg =
  validate cfg;
  Mathx.loglog2_ceil cfg.n

let steps_per_phase cfg = 2 * cfg.ell * Mathx.loglog2_ceil cfg.n

let step_budget cfg = phases cfg * steps_per_phase cfg

let cluster_bounds cfg =
  let p = phases cfg in
  let bounds = Array.make p (0, 0) in
  let base = ref 0 in
  for j = 1 to p do
    (* Literally, cluster j holds n/2^j registers; summed over all
       phases that covers only n - n/2^p ≈ n - n/log n registers, which
       would put a structural floor of n/log n on the unnamed count —
       above Lemma 8's claimed n/(log n)^{2ℓ}.  Following the evident
       intent (DESIGN.md §3), the last cluster absorbs the tail so the
       clusters jointly cover the whole namespace. *)
    let size = if j = p then cfg.n - !base else max 1 (cfg.n / Mathx.pow_int 2 j) in
    bounds.(j - 1) <- (!base, size);
    base := !base + size
  done;
  assert (!base = cfg.n);
  bounds

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

let program ?instr ?obs cfg ~rng =
  let bounds = cluster_bounds cfg in
  let per_phase = steps_per_phase cfg in
  let probes, wins =
    match obs with
    | None -> (None, None)
    | Some s ->
      let o = Obs.scoped_obs s in
      (Some (Obs.counter o "loose-clustered/probes"), Some (Obs.counter o "loose-clustered/wins"))
  in
  let bump = function Some c -> Metrics.incr c | None -> () in
  let rec phase j =
    if j >= Array.length bounds then begin
      (match obs with Some s -> Obs.s_instant s "give-up" | None -> ());
      Program.return None
    end
    else begin
      (match obs with Some s -> Obs.s_begin s ~args:[ ("phase", j) ] "phase" | None -> ());
      step j per_phase
    end
  and step j remaining =
    if remaining = 0 then begin
      (match obs with Some s -> Obs.s_end s "phase" | None -> ());
      phase (j + 1)
    end
    else begin
      let base, size = bounds.(j) in
      let target = base + Sample.uniform_int rng size in
      bump probes;
      (match obs with Some s -> Obs.s_instant s ~args:[ ("target", target) ] "probe" | None -> ());
      let* won = Retry.tas_name target in
      if won then begin
        (match instr with
        | Some s -> s.named_in_phase.(j) <- s.named_in_phase.(j) + 1
        | None -> ());
        bump wins;
        (match obs with
        | Some s ->
          Obs.s_instant s ~args:[ ("phase", j); ("name", target) ] "win";
          Obs.s_end s "phase"
        | None -> ());
        Program.return (Some target)
      end
      else step j (remaining - 1)
    end
  in
  phase 0

let instance ?instr ?obs cfg ~stream =
  validate cfg;
  let memory = Memory.create ~namespace:cfg.n () in
  let programs =
    Array.init cfg.n (fun pid ->
        let obs = Option.map (fun o -> Obs.scoped o ~pid) obs in
        program ?instr ?obs cfg ~rng:(Stream.fork stream ~index:pid))
  in
  { Executor.memory; programs; label = "loose-clustered" }

let run ?instr ?obs ?adversary cfg ~seed =
  let stream = Stream.create seed in
  let inst = instance ?instr ?obs cfg ~stream in
  let adversary = match adversary with Some a -> a | None -> Adversary.round_robin () in
  Executor.run ?obs ~adversary inst
