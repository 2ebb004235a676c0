(* Lemma 6 on real OCaml 5 domains: [Mc_run.loose_geometric] with
   n = 65536, l = 2, so the contention on the [Atomic_tas] registers is
   real; the simulator is not on this path.  Two domains by default (the
   calling domain and one spawned), which is this workload's whole
   thread budget.  The op is one run; counts depend on the interleaving,
   so they repeat only in distribution.

   Every run starts on a collected heap: a run allocates ~20 MB, and
   with two domains every collection stops both, so collecting the
   previous run's garbage on the next run's clock made run times swing
   by half.  The collection is outside the timed calls, and the
   repetition's wall time is the sum of its runs. *)

module Mc_run = Renaming_concurrent.Mc_run
module Assignment = Renaming_shm.Assignment

let kinds = [| "concurrent.run" |]
let n = 65_536
let ell = 2

let prepare ?(domains = 2) ~size ~seed m =
  let seeds = Rep.seeds ~seed ~name:"multicore" size in
  fun () ->
    let steps = ref 0 and named = ref 0 and errors = ref [] in
    Meter.start_rep m;
    Array.iteri
      (fun i seed ->
        Gc.full_major ();
        let t0 = Meter.now () in
        let r = Mc_run.loose_geometric ~domains ~n ~ell ~seed () in
        Meter.call m 0 ~rid:i t0;
        if not (Assignment.is_valid r.Mc_run.assignment) then
          errors := Printf.sprintf "run #%d: duplicate or out-of-range name" i :: !errors;
        steps := !steps + Array.fold_left ( + ) 0 r.Mc_run.steps;
        named := !named + n - Mc_run.unnamed_count r)
      seeds;
    ignore (Meter.end_rep m);
    {
      Rep.wall_ns = Meter.timed_ns m;
      timed_ns = Meter.timed_ns m;
      ops = size;
      failed = List.length !errors;
      steps = !steps;
      named = !named;
      attempts = size * n;
      granted = !named;
      counts = [ ("steps", float_of_int !steps); ("named", float_of_int !named) ];
      errors = List.rev !errors;
    }

let workload =
  {
    Rep.name = "multicore";
    layers = [ "concurrent" ];
    kinds;
    full = 1;
    smoke = 1;
    setup_batch = 500;
    domains = 2;
    deterministic = false;
    prepare = (fun ~size ~seed m -> prepare ~size ~seed m);
  }
