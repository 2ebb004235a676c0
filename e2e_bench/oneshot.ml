(* The paper's algorithms on the simulator: per seed, one instance set of
   Tight (n = 256, mass-conserving), Loose_geometric (n = 1024, l = 2)
   and Longlived (256 sessions x 8 rounds), each on the default
   round-robin adversary.  No service, transport or refinement code is on
   this path.  The op is one instance set. *)

module Params = Renaming_core.Params
module Tight = Renaming_core.Tight
module Geometric = Renaming_core.Loose_geometric
module Longlived = Renaming_longlived.Longlived
module Report = Renaming_sched.Report
module Ledger = Renaming_shm.Step_ledger
module Summary = Renaming_stats.Summary

let kinds = [| "oneshot.set"; "core.tight.run"; "core.loose_geometric.run"; "longlived.run" |]
let k_set = 0
let k_tight = 1
let k_geo = 2
let k_ll = 3

let tight_n = 256
let geo = { Geometric.n = 1024; ell = 2 }
let ll_sessions = 256
let ll_rounds = 8

let prepare ~size ~seed m =
  let params = Params.make ~policy:Params.Mass_conserving ~n:tight_n () in
  let ll = Longlived.make_config ~sessions:ll_sessions ~rounds:ll_rounds () in
  let seeds = Rep.seeds ~seed ~name:"oneshot" size in
  fun () ->
    let steps = ref 0 and named = ref 0 and ticks = ref 0 in
    let tight_max = ref 0 and geo_max = ref 0 and ll_probes = ref 0. and ll_acquires = ref 0 in
    let errors = ref [] and failed = ref 0 in
    let check label i (r : Report.t) =
      if not (Report.is_sound r && r.Report.outcome = Report.Completed) then
        errors := Printf.sprintf "%s seed #%d: %s" label i (Report.outcome_name r) :: !errors;
      steps := !steps + Ledger.total r.Report.ledger;
      ticks := !ticks + r.Report.ticks
    in
    Meter.start_rep m;
    Array.iteri
      (fun i seed ->
        let stats = Longlived.create_stats () in
        let t0 = Meter.now () in
        let id = Meter.open_ m k_set ~rid:i t0 in
        let tight = Tight.run ~params ~seed () in
        let t1 = Meter.now () in
        let loose = Geometric.run geo ~seed in
        let t2 = Meter.now () in
        let long = Longlived.run ~stats ll ~seed in
        let t3 = Meter.now () in
        Meter.close m id k_set t0;
        Meter.child m k_tight ~parent:id ~rid:i t0 t1;
        Meter.child m k_geo ~parent:id ~rid:i t1 t2;
        Meter.child m k_ll ~parent:id ~rid:i t2 t3;
        let errors_before = List.length !errors in
        check "tight" i tight;
        check "loose-geometric" i loose;
        check "longlived" i long;
        if Report.named_count tight <> tight_n then
          errors := Printf.sprintf "tight seed #%d: incomplete" i :: !errors;
        let s = !stats in
        if s.Longlived.release_failures <> 0 || s.Longlived.aborted_sessions <> 0 then
          errors := Printf.sprintf "longlived seed #%d: failed release or aborted session" i :: !errors;
        if List.length !errors > errors_before then incr failed;
        named := !named + Report.named_count tight + Report.named_count loose + s.Longlived.acquires;
        tight_max := !tight_max + Report.max_steps tight;
        geo_max := !geo_max + Report.max_steps loose;
        ll_acquires := !ll_acquires + s.Longlived.acquires;
        ll_probes :=
          !ll_probes
          +. (Summary.mean s.Longlived.probe_summary *. float_of_int (Summary.count s.Longlived.probe_summary)))
      seeds;
    let wall_ns = Meter.end_rep m in
    let attempts = size * (tight_n + geo.Geometric.n + (ll_sessions * ll_rounds)) in
    {
      Rep.wall_ns;
      timed_ns = Meter.timed_ns m;
      ops = size;
      failed = !failed;
      steps = !steps;
      named = !named;
      attempts;
      granted = !named;
      counts =
        [
          ("steps", float_of_int !steps);
          ("named", float_of_int !named);
          ("ticks", float_of_int !ticks);
          ("tight.steps_max_sum", float_of_int !tight_max);
          ("geo.steps_max_sum", float_of_int !geo_max);
          ("ll.probes", !ll_probes);
          ("ll.acquires", float_of_int !ll_acquires);
        ];
      errors = List.rev !errors;
    }

let workload =
  {
    Rep.name = "oneshot";
    layers = [ "core"; "longlived" ];
    kinds;
    full = 100;
    smoke = 3;
    setup_batch = 50;
    domains = 1;
    deterministic = true;
    prepare;
  }
