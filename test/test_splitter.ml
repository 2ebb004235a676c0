(* Tests for the Moir-Anderson splitter and grid renaming. *)

module Splitter = Renaming_splitter.Splitter
module Grid = Renaming_splitter.Grid
module Program = Renaming_sched.Program
module Memory = Renaming_sched.Memory
module Executor = Renaming_sched.Executor
module Adversary = Renaming_sched.Adversary
module Report = Renaming_sched.Report
module Stream = Renaming_rng.Stream

let check = Alcotest.check

(* Run k processes through ONE splitter under [adversary]; encode the
   outcome as an int so the generic executor can carry it. *)
let run_one_splitter ~k ~adversary =
  let memory = Memory.create ~namespace:3 ~words:Splitter.words_per_splitter () in
  let programs =
    Array.init k (fun pid ->
        Program.bind (Splitter.enter ~base:0 ~pid) (fun outcome ->
            Program.return
              (Some (match outcome with Splitter.Stop -> 0 | Splitter.Right -> 1 | Splitter.Down -> 2))))
  in
  let report = Executor.run ~adversary { Executor.memory; programs; label = "splitter" } in
  let outcomes = report.Report.assignment.Renaming_shm.Assignment.names in
  let count v = Array.fold_left (fun acc o -> if o = v then acc + 1 else acc) 0 outcomes in
  (count 0, count 1, count 2)

let splitter_properties ~k (stops, rights, downs) =
  check Alcotest.int "all decided" k (stops + rights + downs);
  check Alcotest.bool "at most one stop" true (stops <= 1);
  check Alcotest.bool "not all right" true (rights <= k - 1);
  check Alcotest.bool "not all down" true (downs <= k - 1)

let test_splitter_alone_stops () =
  let stops, rights, downs = run_one_splitter ~k:1 ~adversary:(Adversary.round_robin ()) in
  check Alcotest.(triple int int int) "solo process stops" (1, 0, 0) (stops, rights, downs)

let test_splitter_properties_round_robin () =
  List.iter
    (fun k -> splitter_properties ~k (run_one_splitter ~k ~adversary:(Adversary.round_robin ())))
    [ 2; 3; 5; 10 ]

let test_splitter_properties_all_adversaries () =
  List.iter
    (fun adversary -> splitter_properties ~k:6 (run_one_splitter ~k:6 ~adversary))
    [ Adversary.lifo; Adversary.adaptive_contention; Adversary.colluding ]

let qcheck_splitter_properties_random_schedules =
  QCheck.Test.make ~count:100 ~name:"splitter properties hold under random schedules"
    QCheck.(pair small_int (int_range 1 12))
    (fun (seed, k) ->
      let adversary =
        Adversary.uniform (Stream.fork_named (Stream.create (Int64.of_int seed)) ~name:"s")
      in
      let stops, rights, downs = run_one_splitter ~k ~adversary in
      stops + rights + downs = k && stops <= 1 && rights <= max 0 (k - 1)
      && downs <= max 0 (k - 1))

let test_cell_index_triangle () =
  check Alcotest.int "(0,0)" 0 (Grid.cell_index ~side:4 ~r:0 ~d:0);
  check Alcotest.int "(0,1) on diag 1" 1 (Grid.cell_index ~side:4 ~r:0 ~d:1);
  check Alcotest.int "(1,0) on diag 1" 2 (Grid.cell_index ~side:4 ~r:1 ~d:0);
  check Alcotest.int "(0,2)" 3 (Grid.cell_index ~side:4 ~r:0 ~d:2);
  Alcotest.check_raises "outside" (Invalid_argument "Grid.cell_index: outside triangle")
    (fun () -> ignore (Grid.cell_index ~side:4 ~r:2 ~d:2))

let test_cell_index_injective () =
  let side = 8 in
  let seen = Hashtbl.create 64 in
  for r = 0 to side - 1 do
    for d = 0 to side - 1 - r do
      let idx = Grid.cell_index ~side ~r ~d in
      check Alcotest.bool "fresh index" false (Hashtbl.mem seen idx);
      Hashtbl.add seen idx ();
      check Alcotest.bool "within namespace" true
        (idx >= 0 && idx < Grid.namespace { Grid.n = side; side })
    done
  done

let test_grid_renames_everyone () =
  List.iter
    (fun n ->
      let cfg = Grid.make_config ~n () in
      let instr = Grid.create_instrumentation () in
      let report = Grid.run ~instr cfg in
      check Alcotest.bool (Printf.sprintf "sound n=%d" n) true (Report.is_sound report);
      check Alcotest.int (Printf.sprintf "complete n=%d" n) n (Report.named_count report);
      check Alcotest.int "no splitter violations" 0 instr.Grid.splitter_violations;
      check Alcotest.int "no boundary exits" 0 instr.Grid.boundary_exits)
    [ 1; 2; 4; 16; 48 ]

let test_grid_under_adversaries () =
  List.iter
    (fun adversary ->
      let cfg = Grid.make_config ~n:24 () in
      let instr = Grid.create_instrumentation () in
      let report = Grid.run ~instr ~adversary cfg in
      check Alcotest.bool ("sound under " ^ report.Report.adversary) true (Report.is_sound report);
      check Alcotest.int "complete" 24 (Report.named_count report);
      check Alcotest.int "no violations" 0 instr.Grid.splitter_violations)
    [ Adversary.lifo; Adversary.adaptive_contention; Adversary.colluding ]

let test_grid_step_complexity_linear () =
  let cfg = Grid.make_config ~n:64 () in
  let report = Grid.run cfg in
  (* 4 reads/writes per splitter, at most n splitters on a path, plus
     the final TAS. *)
  check Alcotest.bool "steps <= 4n + 1" true (Report.max_steps report <= (4 * 64) + 1)

let test_grid_names_on_early_diagonals () =
  (* Moir-Anderson: with k participants every stop happens within the
     first k diagonals, i.e. names < k(k+1)/2 even on a bigger grid. *)
  let cfg = Grid.make_config ~n:8 ~side:32 () in
  let report = Grid.run cfg in
  Array.iter
    (fun name ->
      if name = -1 then Alcotest.fail "unnamed process";
      check Alcotest.bool "name within k diagonals" true (name < 8 * 9 / 2))
    report.Report.assignment.Renaming_shm.Assignment.names

let qcheck_grid_random_schedules =
  QCheck.Test.make ~count:40 ~name:"grid renaming complete+sound under random schedules"
    QCheck.(pair small_int (int_range 1 24))
    (fun (seed, n) ->
      let adversary =
        Adversary.uniform (Stream.fork_named (Stream.create (Int64.of_int seed)) ~name:"g")
      in
      let cfg = Grid.make_config ~n () in
      let instr = Grid.create_instrumentation () in
      let report = Grid.run ~instr ~adversary cfg in
      Report.is_sound report
      && Report.named_count report = n
      && instr.Grid.splitter_violations = 0)

let tests =
  [
    ( "splitter",
      [
        Alcotest.test_case "solo stops" `Quick test_splitter_alone_stops;
        Alcotest.test_case "properties round-robin" `Quick test_splitter_properties_round_robin;
        Alcotest.test_case "properties adversaries" `Quick test_splitter_properties_all_adversaries;
        Alcotest.test_case "cell index triangle" `Quick test_cell_index_triangle;
        Alcotest.test_case "cell index injective" `Quick test_cell_index_injective;
        Alcotest.test_case "grid renames everyone" `Quick test_grid_renames_everyone;
        Alcotest.test_case "grid under adversaries" `Quick test_grid_under_adversaries;
        Alcotest.test_case "grid linear steps" `Quick test_grid_step_complexity_linear;
        Alcotest.test_case "grid early diagonals" `Quick test_grid_names_on_early_diagonals;
        QCheck_alcotest.to_alcotest qcheck_splitter_properties_random_schedules;
        QCheck_alcotest.to_alcotest qcheck_grid_random_schedules;
      ] );
  ]
