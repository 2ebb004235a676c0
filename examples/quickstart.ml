(* Quickstart: rename 64 processes into a namespace of exactly 64 names
   with the tau-register algorithm of Section III, then inspect the
   result.

   Run with:  dune exec examples/quickstart.exe *)

module Params = Renaming_core.Params
module Tight = Renaming_core.Tight
module Report = Renaming_sched.Report
module Assignment = Renaming_shm.Assignment

let () =
  let n = 64 in
  (* 1. Derive the parameter schedule: cluster sizes, tau-register
     geometry, reserve. *)
  let params = Params.make ~policy:Params.Mass_conserving ~n () in
  Format.printf "%a@.@." Params.pp params;

  (* 2. Run the algorithm (round-robin scheduling, seed 42). *)
  let report = Tight.run ~params ~seed:42L () in
  Format.printf "%a@.@." Report.pp report;

  (* 3. Inspect the assignment: every process got a distinct name in
     [0, n). *)
  let names = report.Report.assignment.Assignment.names in
  Format.printf "first ten assignments:@.";
  Array.iteri
    (fun pid name ->
      if pid < 10 then
        if name = -1 then Format.printf "  process %2d -> (unnamed)@." pid
        else Format.printf "  process %2d -> name %2d@." pid name)
    names;

  (* 4. The safety properties, checked explicitly. *)
  assert (Assignment.is_complete report.Report.assignment);
  Format.printf "@.tight renaming: %d processes, %d names, max %d steps — all sound.@." n n
    (Report.max_steps report)
