module Program = Renaming_sched.Program
module Retry = Renaming_sched.Retry
module Sample = Renaming_rng.Sample
open Program.Syntax

let batch_cap size = 4 * size

let max_random_steps ~size =
  let cap = batch_cap size in
  let rec go total batch = if batch > cap then total else go (total + batch) (2 * batch) in
  go 0 1

let program ~base ~size ~rng =
  if size < 1 then invalid_arg "Backup.program: empty namespace slice";
  let cap = batch_cap size in
  let rec round batch =
    if batch > cap then
      (* Deterministic sweep: termination no matter what the adversary
         did to the random phase. *)
      Retry.scan_names ~first:base ~count:size ()
    else step batch batch
  and step batch remaining =
    if remaining = 0 then round (2 * batch)
    else
      let target = base + Sample.uniform_int rng size in
      let* won = Retry.tas_name target in
      if won then Program.return (Some target) else step batch (remaining - 1)
  in
  round 1
