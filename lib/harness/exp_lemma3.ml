module Sample = Renaming_rng.Sample
module Stream = Renaming_rng.Stream
module Chernoff = Renaming_stats.Chernoff
module Whp = Renaming_stats.Whp

(* One trial: allocate balls i.u.r. and count empty bins. *)
let empty_bins ~rng ~balls ~bins =
  let hit = Array.make bins false in
  for _ = 1 to balls do
    hit.(Sample.uniform_int rng bins) <- true
  done;
  Array.fold_left (fun acc h -> if h then acc else acc + 1) 0 hit

let t2 scale =
  let table =
    Table.create ~title:"T2 (Lemma 3): 2c log n balls into 2 log n bins, empty bins < log n"
      ~columns:
        [
          "n"; "c"; "balls"; "bins"; "trials"; "failures"; "emp. rate"; "chernoff bound";
          "1/n"; "holds";
        ]
  in
  let ell = 1. in
  let c = int_of_float (Chernoff.lemma3_min_c ~ell) in
  let trials = Runcfg.whp_trials scale in
  let stream = Stream.create 0xB4115L in
  Array.iter
    (fun n ->
      let log_n = Renaming_plan.Mathx.log2_ceil n in
      let balls = 2 * c * log_n and bins = 2 * log_n in
      let rng = Stream.fork_named stream ~name:(Printf.sprintf "lemma3-%d" n) in
      let verdict =
        Whp.check ~trials ~bound:(1. /. float_of_int n) ~failed:(fun _ ->
            empty_bins ~rng ~balls ~bins >= log_n)
      in
      Table.add_row table
        [
          Table.cell_int n;
          Table.cell_int c;
          Table.cell_int balls;
          Table.cell_int bins;
          Table.cell_int verdict.Whp.trials;
          Table.cell_int verdict.Whp.failures;
          Printf.sprintf "%.2e" verdict.Whp.failure_rate;
          Printf.sprintf "%.2e" (Chernoff.lemma3_failure_bound ~n ~c:(float_of_int c) ~ell);
          Printf.sprintf "%.2e" (1. /. float_of_int n);
          Table.cell_bool verdict.Whp.holds;
        ])
    (Runcfg.sweep_ns scale);
  Table.add_note table
    (Printf.sprintf "c = %d per the lemma's hypothesis c >= max(ln 2, 2l+2), l = 1" c);
  table
