module Geometric = Renaming_core.Loose_geometric
module Clustered = Renaming_core.Loose_clustered
module Report = Renaming_sched.Report
module Summary = Renaming_stats.Summary

let t4 scale =
  let table =
    Table.create ~title:"T4 (Lemma 6): geometric-rounds loose renaming, unnamed and steps"
      ~columns:
        [
          "n"; "l"; "rounds"; "budget"; "unnamed mean"; "unnamed max"; "bound 2n/(llg n)^l";
          "steps max"; "sound";
        ]
  in
  let seeds = Seeds.take (Runcfg.trials scale) in
  Array.iter
    (fun n ->
      List.iter
        (fun ell ->
          let cfg = { Geometric.n; ell } in
          let unnamed = Summary.create () and steps = Summary.create () in
          let sound = ref true in
          Array.iter
            (fun seed ->
              let report = Geometric.run cfg ~seed in
              Summary.add_int unnamed (List.length (Report.surviving_unnamed report));
              Summary.add_int steps (Report.max_steps report);
              if not (Report.is_sound report) then sound := false)
            seeds;
          Table.add_row table
            [
              Table.cell_int n;
              Table.cell_int ell;
              Table.cell_int (Geometric.rounds cfg);
              Table.cell_int (Geometric.step_budget cfg);
              Table.cell_float (Summary.mean unnamed);
              Table.cell_float ~decimals:0 (Summary.max unnamed);
              Table.cell_float (Geometric.predicted_unnamed cfg);
              Table.cell_float ~decimals:0 (Summary.max steps);
              Table.cell_bool !sound;
            ])
        [ 1; 2; 3 ])
    (Runcfg.sweep_ns scale);
  Table.add_note table "claim holds when 'unnamed max' stays below the bound column";
  table

let t6 scale =
  let table =
    Table.create ~title:"T6 (Lemma 8): clustered loose renaming, unnamed and steps"
      ~columns:
        [
          "n"; "l"; "phases"; "steps/phase"; "unnamed mean"; "unnamed max"; "bound n/(lg n)^2l";
          "steps max"; "sound";
        ]
  in
  let seeds = Seeds.take (Runcfg.trials scale) in
  Array.iter
    (fun n ->
      List.iter
        (fun ell ->
          let cfg = { Clustered.n; ell } in
          let unnamed = Summary.create () and steps = Summary.create () in
          let sound = ref true in
          Array.iter
            (fun seed ->
              let report = Clustered.run cfg ~seed in
              Summary.add_int unnamed (List.length (Report.surviving_unnamed report));
              Summary.add_int steps (Report.max_steps report);
              if not (Report.is_sound report) then sound := false)
            seeds;
          Table.add_row table
            [
              Table.cell_int n;
              Table.cell_int ell;
              Table.cell_int (Clustered.phases cfg);
              Table.cell_int (Clustered.steps_per_phase cfg);
              Table.cell_float (Summary.mean unnamed);
              Table.cell_float ~decimals:0 (Summary.max unnamed);
              Table.cell_float (Clustered.predicted_unnamed cfg);
              Table.cell_float ~decimals:0 (Summary.max steps);
              Table.cell_bool !sound;
            ])
        [ 1; 2 ])
    (Runcfg.sweep_ns scale);
  Table.add_note table
    "the lemma states n/(log n)^l in its statement but proves n/(log n)^{2l}; we compare against the proof";
  table

let f2 scale =
  let n = Runcfg.big_n scale in
  let ell = 2 in
  let cfg = { Geometric.n; ell } in
  let table =
    Table.create
      ~title:(Printf.sprintf "F2 (Lemma 6 proof): unnamed after round i vs n/2^i, n=%d l=%d" n ell)
      ~columns:[ "round"; "steps in round"; "named in round"; "unnamed after"; "claim n/2^i"; "ok" ]
  in
  let instr = Geometric.create_instrumentation cfg in
  let _report = Geometric.run ~instr cfg ~seed:(Seeds.take 1).(0) in
  let unnamed = ref n in
  Array.iteri
    (fun i named ->
      unnamed := !unnamed - named;
      let claim = float_of_int n /. float_of_int (Renaming_plan.Mathx.pow_int 2 (i + 1)) in
      Table.add_row table
        [
          Table.cell_int (i + 1);
          Table.cell_int (Renaming_plan.Mathx.pow_int 2 (i + 1));
          Table.cell_int named;
          Table.cell_int !unnamed;
          Table.cell_float ~decimals:0 claim;
          Table.cell_bool (float_of_int !unnamed <= claim);
        ])
    instr.Geometric.named_in_round;
  Table.add_note table "a round is 'successful' when unnamed <= n/2^i; Lemma 6 proves every round succeeds w.h.p.";
  table
