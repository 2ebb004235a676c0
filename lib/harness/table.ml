(* Careful with to_json below: rows and notes are stored reversed. *)
type t = {
  title : string;
  columns : string list;
  mutable rows : string list list;  (* reversed *)
  mutable notes : string list;  (* reversed *)
}

let create ~title ~columns = { title; columns; rows = []; notes = [] }

let add_row t row =
  if List.length row <> List.length t.columns then
    invalid_arg "Table.add_row: row width mismatch";
  t.rows <- row :: t.rows

let add_note t note = t.notes <- note :: t.notes

let render t =
  let rows = List.rev t.rows in
  let all = t.columns :: rows in
  let widths =
    List.fold_left
      (fun acc row -> List.map2 (fun w cell -> max w (String.length cell)) acc row)
      (List.map (fun _ -> 0) t.columns)
      all
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf ("== " ^ t.title ^ " ==\n");
  let pad cell width = cell ^ String.make (width - String.length cell) ' ' in
  let emit_row row =
    let cells = List.map2 pad row widths in
    Buffer.add_string buf ("  " ^ String.concat "  " cells ^ "\n")
  in
  emit_row t.columns;
  let rule = List.map (fun w -> String.make w '-') widths in
  emit_row rule;
  List.iter emit_row rows;
  List.iter (fun note -> Buffer.add_string buf ("  * " ^ note ^ "\n")) (List.rev t.notes);
  Buffer.contents buf

let to_json t =
  let module Json = Renaming_obs.Json in
  let strings l = Json.List (List.map (fun s -> Json.String s) l) in
  Json.Obj
    [
      ("title", Json.String t.title);
      ("columns", strings t.columns);
      ("rows", Json.List (List.map strings (List.rev t.rows)));
      ("notes", strings (List.rev t.notes));
    ]

let cell_int = string_of_int

let cell_float ?(decimals = 2) v = Printf.sprintf "%.*f" decimals v

let cell_bool b = if b then "yes" else "NO"
