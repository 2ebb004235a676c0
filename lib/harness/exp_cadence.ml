module Params = Renaming_core.Params
module Tight = Renaming_core.Tight
module Executor = Renaming_sched.Executor
module Adversary = Renaming_sched.Adversary
module Report = Renaming_sched.Report
module Stream = Renaming_rng.Stream
module Summary = Renaming_stats.Summary

let t14 scale =
  (* Small n on purpose: with many processes the scheduling latency
     between a submit and the next poll already exceeds any reasonable
     cadence, hiding the delay entirely.  Few processes poll quickly and
     expose it. *)
  let n = match scale with Runcfg.Quick -> 64 | Runcfg.Full -> 256 in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "T14: device answer-delay ablation (tau_cadence = steps per device cycle), n=%d" n)
      ~columns:[ "cadence"; "steps mean"; "steps max"; "poll share %"; "complete"; "sound" ]
  in
  let params = Params.make ~policy:Params.Mass_conserving ~n () in
  let seeds = Seeds.take (min 5 (Runcfg.trials scale)) in
  List.iter
    (fun cadence ->
      let steps = Summary.create () in
      let complete = ref true and sound = ref true in
      let polls = ref 0 and total_ops = ref 0 in
      Array.iter
        (fun seed ->
          let stream = Stream.create seed in
          let inst = Tight.instance ~params ~stream () in
          let report =
            Executor.run ~tau_cadence:cadence
              ~on_event:(function
                | Executor.Stepped { op; _ } -> (
                  incr total_ops;
                  match op with Renaming_sched.Op.Tau_poll _ -> incr polls | _ -> ())
                | Executor.Crashed _ | Recovered _ | Returned _ -> ())
              ~adversary:(Adversary.round_robin ()) inst
          in
          Summary.add_int steps (Report.max_steps report);
          if Report.named_count report <> n then complete := false;
          if not (Report.is_sound report) then sound := false)
        seeds;
      Table.add_row table
        [
          Table.cell_int cadence;
          Table.cell_float (Summary.mean steps);
          Table.cell_float ~decimals:0 (Summary.max steps);
          Table.cell_float (100. *. float_of_int !polls /. float_of_int (max 1 !total_ops));
          Table.cell_bool !complete;
          Table.cell_bool !sound;
        ])
    [ 1; 8; 64; 512; 4096 ];
  Table.add_note table
    "a slower device clock adds polling overhead (the poll share grows with the cadence) but leaves correctness and completeness untouched — the 'constant slowdown' claim of sec. II-C holds whenever the cadence is a constant";
  table
