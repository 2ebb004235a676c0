module Params = Renaming_core.Params
module Tight = Renaming_core.Tight
module Report = Renaming_sched.Report
module Summary = Renaming_stats.Summary
module Fit = Renaming_stats.Fit

let log2f = Renaming_plan.Mathx.log2f

let t1 scale =
  let table =
    Table.create ~title:"T1 (Theorem 5): tight renaming via tau-registers, mass-conserving"
      ~columns:
        [ "n"; "rounds"; "reserve"; "steps p50"; "steps max"; "max/log2 n"; "complete"; "sound" ]
  in
  let seeds = Seeds.take (Runcfg.trials scale) in
  let points = ref [] in
  Array.iter
    (fun n ->
      let params = Params.make ~policy:Params.Mass_conserving ~n () in
      let maxima = Summary.create () in
      let medians = Summary.create () in
      let complete = ref true and sound = ref true in
      Array.iter
        (fun seed ->
          let report = Tight.run ~params ~seed () in
          Summary.add_int maxima (Report.max_steps report);
          Summary.add medians
            (Summary.median (Renaming_shm.Step_ledger.summary report.Report.ledger));
          if Report.named_count report <> n then complete := false;
          if not (Report.is_sound report) then sound := false)
        seeds;
      let max_mean = Summary.mean maxima in
      points := (float_of_int n, max_mean) :: !points;
      Table.add_row table
        [
          Table.cell_int n;
          Table.cell_int (Params.round_count params);
          Table.cell_int (Params.reserve_size params);
          Table.cell_float (Summary.mean medians);
          Table.cell_float max_mean;
          Table.cell_float (max_mean /. log2f (float_of_int n));
          Table.cell_bool !complete;
          Table.cell_bool !sound;
        ])
    (Runcfg.sweep_ns scale);
  let fit = Fit.best_fit (Array.of_list (List.rev !points)) in
  Table.add_note table
    (Format.asprintf "best shape fit of mean max-steps: %a" Fit.pp_fit fit);
  Table.add_note table
    "paper claim: all n processes named in namespace n within O(log n) steps w.h.p.";
  table

let t1b scale =
  let table =
    Table.create ~title:"T1b (DESIGN.md sec.3): Definition 2 taken literally"
      ~columns:
        [
          "n"; "cluster names"; "coverage pred"; "named via clusters"; "reserve entries";
          "steps max"; "complete";
        ]
  in
  let ns = match scale with Runcfg.Quick -> [| 256; 512; 1024; 2048 |] | Runcfg.Full -> [| 256; 512; 1024; 2048; 4096; 8192 |] in
  let seeds = Seeds.take (min 3 (Runcfg.trials scale)) in
  Array.iter
    (fun n ->
      let params = Params.make ~policy:Params.Paper_literal ~n () in
      let c = params.Params.c in
      let predicted = float_of_int n /. float_of_int (2 * ((2 * c) - 1)) in
      let reserve_entries = Summary.create () in
      let maxima = Summary.create () in
      let complete = ref true in
      Array.iter
        (fun seed ->
          let instr = Tight.create_instrumentation params in
          let report = Tight.run ~instr ~params ~seed () in
          Summary.add_int reserve_entries instr.Tight.reserve_entries;
          Summary.add_int maxima (Report.max_steps report);
          if Report.named_count report <> n then complete := false)
        seeds;
      let via_clusters = float_of_int n -. Summary.mean reserve_entries in
      Table.add_row table
        [
          Table.cell_int n;
          Table.cell_int (Params.cluster_name_coverage params);
          Table.cell_float predicted;
          Table.cell_float via_clusters;
          Table.cell_float (Summary.mean reserve_entries);
          Table.cell_float (Summary.mean maxima);
          Table.cell_bool !complete;
        ])
    ns;
  Table.add_note table
    "the literal schedule covers only ~n/(2(2c-1)) names; everyone else pays a Theta(n) reserve scan";
  table

let t3 scale =
  let n = Runcfg.big_n scale in
  let params = Params.make ~policy:Params.Mass_conserving ~n () in
  let table =
    Table.create
      ~title:(Printf.sprintf "T3 (Lemma 4.2): requests per block per round, n=%d" n)
      ~columns:[ "round"; "blocks"; "min req"; "mean req"; "threshold 2c log n"; "ok" ]
  in
  let instr = Tight.create_instrumentation params in
  let _report = Tight.run ~instr ~params ~seed:(Seeds.take 1).(0) () in
  let threshold = 2 * params.Params.c * params.Params.log_n in
  let worst_below = ref 0 in
  let rounds = params.Params.rounds in
  let show = min (Array.length rounds) 10 in
  Array.iteri
    (fun i round ->
      let blocks = round.Params.blocks in
      let stats = Summary.create () in
      for b = round.Params.first_tau to round.Params.first_tau + blocks - 1 do
        Summary.add_int stats instr.Tight.requests_per_tau.(b)
      done;
      let ok = int_of_float (Summary.min stats) >= threshold in
      if not ok then incr worst_below;
      if i < show then
        Table.add_row table
          [
            Table.cell_int round.Params.index;
            Table.cell_int blocks;
            Table.cell_float ~decimals:0 (Summary.min stats);
            Table.cell_float (Summary.mean stats);
            Table.cell_int threshold;
            Table.cell_bool ok;
          ])
    rounds;
  Table.add_note table
    (Printf.sprintf "rounds with any block below threshold: %d/%d (Lemma 4 says >= 2c log n w.h.p.)"
       !worst_below (Array.length rounds));
  Table.add_note table
    "under-threshold rounds, when any, are the final ones where the mass-conserving schedule hands the few remaining actives to the reserve";
  Table.add_note table
    (Printf.sprintf "only the first %d of %d rounds are shown" show (Array.length rounds));
  table
