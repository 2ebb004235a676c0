(* Chrome trace_event export of a meter's span window, and the check
   that a written trace re-parses and covers the workload's layers.
   Spans are complete ("X") events on one track; Perfetto nests them by
   time, and args carry the span id, parent id and request id. *)

module Json = Renaming_obs.Json

let layer name = match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name

let span_name m kind = if kind = Meter.root_kind then "bench.rep" else (Meter.kinds m).(kind)

let to_json ~workload m =
  let spans = Meter.spans m in
  let base = if Array.length spans = 0 then 0 else spans.(0).Meter.start in
  let us ns = Json.Float (float_of_int ns /. 1000.) in
  let event i (s : Meter.span) =
    let name = span_name m s.kind in
    Json.Obj
      [
        ("name", Json.String name);
        ("cat", Json.String (layer name));
        ("ph", Json.String "X");
        ("ts", us (s.start - base));
        ("dur", us (s.stop - s.start));
        ("pid", Json.Int 1);
        ("tid", Json.Int 1);
        ("args", Json.Obj [ ("id", Json.Int i); ("parent", Json.Int s.parent); ("rid", Json.Int s.rid) ]);
      ]
  in
  let meta =
    Json.Obj
      [
        ("name", Json.String "process_name");
        ("ph", Json.String "M");
        ("pid", Json.Int 1);
        ("args", Json.Obj [ ("name", Json.String workload) ]);
      ]
  in
  Json.Obj
    [
      ("traceEvents", Json.List (meta :: Array.to_list (Array.mapi event spans)));
      ("displayTimeUnit", Json.String "ns");
    ]

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let write ~dir ~workload m =
  mkdir_p dir;
  let path = Filename.concat dir (workload ^ ".trace.json") in
  let oc = open_out path in
  output_string oc (Json.to_string (to_json ~workload m));
  close_out oc;
  path

let well_formed e =
  let num k = match Json.member k e with Some (Json.Float _ | Json.Int _) -> true | _ -> false in
  num "ts" && num "dur"
  && Option.is_some (Option.bind (Json.member "name" e) Json.to_str)
  && Option.is_some (Option.bind (Json.member "args" e) (Json.member "parent"))

let check ~layers contents =
  match Json.of_string contents with
  | Error e -> Error ("trace does not parse: " ^ e)
  | Ok doc -> (
    match Option.bind (Json.member "traceEvents" doc) Json.to_items with
    | None -> Error "trace has no traceEvents list"
    | Some events -> (
      let spans = List.filter (fun e -> Json.member "ph" e = Some (Json.String "X")) events in
      let cats = List.filter_map (fun e -> Option.bind (Json.member "cat" e) Json.to_str) spans in
      if not (List.for_all well_formed spans) then Error "trace has a malformed span"
      else
        match List.filter (fun l -> not (List.mem l cats)) layers with
        | [] -> Ok (List.length spans)
        | missing -> Error ("trace has no span for layer(s) " ^ String.concat ", " missing)))
