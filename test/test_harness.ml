(* Tests for tables, seeds, replication and the experiment registry. *)

module Table = Renaming_harness.Table
module Seeds = Renaming_harness.Seeds
module Runcfg = Renaming_harness.Runcfg
module Registry = Renaming_harness.Registry

let check = Alcotest.check

let test_table_render_alignment () =
  let t = Table.create ~title:"demo" ~columns:[ "a"; "bb" ] in
  Table.add_row t [ "1"; "2" ];
  Table.add_row t [ "333"; "4" ];
  Table.add_note t "a note";
  let s = Table.render t in
  check Alcotest.bool "has title" true
    (String.length s > 0 && String.sub s 0 11 = "== demo ==\n");
  check Alcotest.bool "has note" true
    (String.length s >= 10 && String.length (String.trim s) > 0
    && String.split_on_char '\n' s |> List.exists (fun l -> l = "  * a note"))

let test_table_row_width_checked () =
  let t = Table.create ~title:"demo" ~columns:[ "a"; "b" ] in
  Alcotest.check_raises "short row" (Invalid_argument "Table.add_row: row width mismatch")
    (fun () -> Table.add_row t [ "1" ])

let test_table_cells () =
  check Alcotest.string "int" "42" (Table.cell_int 42);
  check Alcotest.string "float" "3.14" (Table.cell_float 3.14159);
  check Alcotest.string "float decimals" "3.1416" (Table.cell_float ~decimals:4 3.14159);
  check Alcotest.string "bool true" "yes" (Table.cell_bool true);
  check Alcotest.string "bool false" "NO" (Table.cell_bool false)

let test_seeds () =
  check Alcotest.int "take 3" 3 (Array.length (Seeds.take 3));
  let many = Seeds.take 50 in
  check Alcotest.int "cycles" 50 (Array.length many);
  (* The seeds cycle: after the first repeat the list starts over. *)
  let period = ref 1 in
  while !period < 50 && many.(!period) <> many.(0) do
    incr period
  done;
  check Alcotest.bool "first repeats" true (!period < 50);
  check Alcotest.bool "and the list starts over" true
    (Array.for_all Fun.id (Array.mapi (fun i s -> s = many.(i mod !period)) many))

let test_runcfg () =
  check Alcotest.string "quick" "quick" (Runcfg.scale_name Runcfg.Quick);
  check Alcotest.bool "quick sweep smaller" true
    (Array.length (Runcfg.sweep_ns Runcfg.Quick) < Array.length (Runcfg.sweep_ns Runcfg.Full));
  check Alcotest.bool "trials positive" true (Runcfg.trials Runcfg.Quick > 0)

let test_registry_complete () =
  (* One entry per table/figure announced in DESIGN.md. *)
  let ids = List.map (fun e -> e.Registry.id) Registry.all in
  List.iter
    (fun required ->
      check Alcotest.bool ("registry has " ^ required) true (List.mem required ids))
    [ "T1"; "T1b"; "T2"; "T3"; "T4"; "T5"; "T6"; "T7"; "T8"; "T9"; "T10"; "T11"; "T12";
      "T13"; "T14"; "T15"; "T16"; "F1"; "F2"; "F3"; "F4" ]

let test_registry_find () =
  (match Registry.find "t1" with
  | Some e -> check Alcotest.string "case-insensitive" "T1" e.Registry.id
  | None -> Alcotest.fail "T1 not found");
  check Alcotest.bool "missing id" true (Registry.find "T99" = None)

let test_registry_entries_runnable () =
  (* Smoke-run the two cheapest experiments end to end through the
     registry interface. *)
  List.iter
    (fun id ->
      match Registry.find id with
      | Some e ->
        let table = e.Registry.run Runcfg.Quick in
        check Alcotest.bool (id ^ " renders") true (String.length (Table.render table) > 0)
      | None -> Alcotest.fail (id ^ " missing"))
    [ "T2"; "T10" ]

let tests =
  [
    ( "harness",
      [
        Alcotest.test_case "table render" `Quick test_table_render_alignment;
        Alcotest.test_case "table row width" `Quick test_table_row_width_checked;
        Alcotest.test_case "table cells" `Quick test_table_cells;
        Alcotest.test_case "seeds" `Quick test_seeds;
        Alcotest.test_case "runcfg" `Quick test_runcfg;
        Alcotest.test_case "registry complete" `Quick test_registry_complete;
        Alcotest.test_case "registry find" `Quick test_registry_find;
        Alcotest.test_case "registry runnable" `Quick test_registry_entries_runnable;
      ] );
  ]

(* --- appended: smoke-run the cheap newer experiments too --- *)

let test_new_experiments_runnable () =
  List.iter
    (fun id ->
      match Registry.find id with
      | Some e ->
        let table = e.Registry.run Runcfg.Quick in
        check Alcotest.bool (id ^ " renders") true (String.length (Table.render table) > 0)
      | None -> Alcotest.fail (id ^ " missing"))
    [ "T12"; "T15" ]

let more_tests =
  [
    ( "harness-extra",
      [ Alcotest.test_case "newer experiments runnable" `Quick test_new_experiments_runnable ] );
  ]

let tests = tests @ more_tests
