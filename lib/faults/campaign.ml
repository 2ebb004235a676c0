module Executor = Renaming_sched.Executor
module Adversary = Renaming_sched.Adversary
module Report = Renaming_sched.Report
module Directed = Renaming_sched.Directed
module Stream = Renaming_rng.Stream
module Json = Renaming_obs.Json
module Obs = Renaming_obs.Obs
module Metrics = Renaming_obs.Metrics

type adversary_spec = { adv_name : string; make_adversary : seed:int64 -> Adversary.t }

type pattern = {
  pat_name : string;
  schedule : seed:int64 -> n:int -> (int * int) list;
  recover_after : n:int -> int option;
}

let no_crashes =
  { pat_name = "none"; schedule = (fun ~seed:_ ~n:_ -> []); recover_after = (fun ~n:_ -> None) }

type spec = {
  algorithms : Target.t list;
  adversaries : adversary_spec list;
  patterns : pattern list;
  fault_rates : float list;
  seeds : int64 array;
  max_ticks : int;
}

type cell = {
  c_algorithm : string;
  c_adversary : string;
  c_pattern : string;
  c_rate : float;
  c_runs : int;
  c_violations : int;
  c_messages : string list;
  c_livelocks : int;
  c_injected : int;
  c_crashed : int;
  c_recovered : int;
  c_unnamed : int;
  c_mean_max_steps : float;
  c_baseline_max_steps : float;
  c_repros : Shrink.repro list;
}

let degradation cell =
  if cell.c_baseline_max_steps > 0. then cell.c_mean_max_steps /. cell.c_baseline_max_steps
  else 1.

type summary = {
  cells : cell list;
  total_runs : int;
  total_violations : int;
  total_livelocks : int;
  total_injected : int;
}

let wrap_adversary ~pattern ~seed ~n base =
  match pattern.schedule ~seed ~n with
  | [] -> base
  | crashes -> (
    match pattern.recover_after ~n with
    | Some recover_after -> Adversary.with_crash_recovery ~base ~crashes ~recover_after
    | None -> Adversary.with_crashes ~base ~crash_times:crashes)

(* Fault-free fair-schedule step complexity per algorithm, the
   denominator of the degradation column. *)
let baseline ~max_ticks ~seeds algo =
  let total = ref 0. in
  Array.iter
    (fun seed ->
      let report =
        Executor.run ~max_ticks ~adversary:(Adversary.round_robin ()) (algo.Target.build ~seed)
      in
      total := !total +. float_of_int (Report.max_steps report))
    seeds;
  !total /. float_of_int (max 1 (Array.length seeds))

let run_cell ?obs ~max_ticks ~seeds ~baseline_max_steps algo adv pattern rate =
  let violations = ref 0 in
  let messages = ref [] in
  let repros = ref [] in
  let livelocks = ref 0 in
  let injected = ref 0 in
  let crashed = ref 0 in
  let recovered = ref 0 in
  let unnamed = ref 0 in
  let steps_total = ref 0. in
  let completed_runs = ref 0 in
  Array.iter
    (fun seed ->
      let inst = algo.Target.build ~seed in
      let n = Array.length inst.Executor.programs in
      let base = adv.make_adversary ~seed in
      let adversary = wrap_adversary ~pattern ~seed ~n base in
      let fault_rng = Stream.fork_named (Stream.create seed) ~name:"campaign-faults" in
      let inject, injected_count = Injector.counting (Injector.bernoulli ~rate ~rng:fault_rng) in
      let monitor = Monitor.create ?obs ~mode:algo.Target.mode inst in
      (* The run's schedule, newest first; a choice is kept before the
         monitor judges its event, so a failing step stays in it. *)
      let choices = ref [] in
      let on_event e =
        Option.iter (fun c -> choices := c :: !choices) (Directed.choice_of_event e);
        Monitor.hook monitor e
      in
      let outcome =
        match Executor.run ~max_ticks ~inject ~on_event ~adversary inst with
        | report -> Directed.Finished report
        | exception e -> Directed.Raised e
      in
      (match Monitor.judge monitor outcome with
       | Monitor.Passed report | Monitor.Livelocked report ->
         (* Belt and braces: the monitor already checks uniqueness and
            bounds online; a post-hoc failure here means the monitor has
            a blind spot. *)
         if not (Report.is_sound report) then begin
           incr violations;
           messages := "post-hoc soundness check failed (monitor blind spot?)" :: !messages
         end;
         if Report.is_livelock report then incr livelocks
         else begin
           incr completed_runs;
           steps_total := !steps_total +. float_of_int (Report.max_steps report)
         end;
         crashed := !crashed + List.length report.Report.crashed;
         recovered := !recovered + List.length report.Report.recovered;
         unnamed := !unnamed + List.length (Report.surviving_unnamed report)
       | Monitor.Failed v ->
         incr violations;
         messages := v.Monitor.message :: !messages;
         (* Auto-shrink every violation to a 1-minimal replayable repro. *)
         let shrink_input =
           {
             Shrink.target = algo;
             seed;
             choices = List.rev !choices;
             max_ticks;
             tau_cadence = 1;
           }
         in
         Option.iter
           (fun r -> repros := Shrink.to_repro r :: !repros)
           (Shrink.shrink shrink_input));
      injected := !injected + injected_count ())
    seeds;
  {
    c_algorithm = algo.Target.name;
    c_adversary = adv.adv_name;
    c_pattern = pattern.pat_name;
    c_rate = rate;
    c_runs = Array.length seeds;
    c_violations = !violations;
    c_messages = List.rev !messages;
    c_livelocks = !livelocks;
    c_injected = !injected;
    c_crashed = !crashed;
    c_recovered = !recovered;
    c_unnamed = !unnamed;
    c_mean_max_steps =
      (if !completed_runs > 0 then !steps_total /. float_of_int !completed_runs else 0.);
    c_baseline_max_steps = baseline_max_steps;
    c_repros = List.rev !repros;
  }

let run ?progress ?obs spec =
  let report_progress =
    match progress with Some f -> f | None -> fun ~done_:_ ~total:_ -> ()
  in
  let total_cells =
    List.length spec.algorithms * List.length spec.adversaries * List.length spec.patterns
    * List.length spec.fault_rates
  in
  let done_cells = ref 0 in
  let cells =
    List.concat_map
      (fun algo ->
        let baseline_max_steps = baseline ~max_ticks:spec.max_ticks ~seeds:spec.seeds algo in
        List.concat_map
          (fun adv ->
            List.concat_map
              (fun pattern ->
                List.map
                  (fun rate ->
                    let cell =
                      run_cell ?obs ~max_ticks:spec.max_ticks ~seeds:spec.seeds
                        ~baseline_max_steps algo adv pattern rate
                    in
                    incr done_cells;
                    report_progress ~done_:!done_cells ~total:total_cells;
                    cell)
                  spec.fault_rates)
              spec.patterns)
          spec.adversaries)
      spec.algorithms
  in
  let summary =
    {
      cells;
      total_runs = List.fold_left (fun acc c -> acc + c.c_runs) 0 cells;
      total_violations = List.fold_left (fun acc c -> acc + c.c_violations) 0 cells;
      total_livelocks = List.fold_left (fun acc c -> acc + c.c_livelocks) 0 cells;
      total_injected = List.fold_left (fun acc c -> acc + c.c_injected) 0 cells;
    }
  in
  (match obs with
  | None -> ()
  | Some o ->
    Metrics.add (Obs.counter o "chaos/cells") (List.length summary.cells);
    Metrics.add (Obs.counter o "chaos/runs") summary.total_runs;
    Metrics.add (Obs.counter o "chaos/violations") summary.total_violations;
    Metrics.add (Obs.counter o "chaos/livelocks") summary.total_livelocks;
    Metrics.add (Obs.counter o "chaos/injected_faults") summary.total_injected);
  summary

let cell_to_json c =
  Json.Obj
    [
      ("algorithm", Json.String c.c_algorithm);
      ("adversary", Json.String c.c_adversary);
      ("pattern", Json.String c.c_pattern);
      ("fault_rate", Json.Float c.c_rate);
      ("runs", Json.Int c.c_runs);
      ("violations", Json.Int c.c_violations);
      ("livelocks", Json.Int c.c_livelocks);
      ("injected_faults", Json.Int c.c_injected);
      ("crashed", Json.Int c.c_crashed);
      ("recovered", Json.Int c.c_recovered);
      ("unnamed_survivors", Json.Int c.c_unnamed);
      ("mean_max_steps", Json.fixed 2 c.c_mean_max_steps);
      ("baseline_max_steps", Json.fixed 2 c.c_baseline_max_steps);
      ("degradation", Json.fixed 3 (degradation c));
      ("messages", Json.List (List.map (fun m -> Json.String m) c.c_messages));
      ("repros", Json.List (List.map Shrink.repro_to_json c.c_repros));
    ]

let to_json summary =
  Json.Obj
    [
      ("total_runs", Json.Int summary.total_runs);
      ("total_violations", Json.Int summary.total_violations);
      ("total_livelocks", Json.Int summary.total_livelocks);
      ("total_injected_faults", Json.Int summary.total_injected);
      ("cells", Json.List (List.map cell_to_json summary.cells));
    ]

let pp fmt summary =
  Format.fprintf fmt "@[<v>chaos campaign: %d runs, %d violations, %d livelocks, %d injected faults@ "
    summary.total_runs summary.total_violations summary.total_livelocks summary.total_injected;
  Format.fprintf fmt "%-20s %-20s %-16s %6s %5s %5s %5s %8s %6s@ " "algorithm" "adversary"
    "pattern" "rate" "viol" "live" "recov" "steps" "degr";
  List.iter
    (fun c ->
      Format.fprintf fmt "%-20s %-20s %-16s %6g %5d %5d %5d %8.1f %6.2f@ " c.c_algorithm
        c.c_adversary c.c_pattern c.c_rate c.c_violations c.c_livelocks c.c_recovered
        c.c_mean_max_steps (degradation c))
    summary.cells;
  Format.fprintf fmt "@]"
