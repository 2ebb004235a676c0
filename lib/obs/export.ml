(* Exporters: the three machine-readable views of a telemetry
   capability.

   - JSONL: one JSON object per event, append-friendly, round-trips
     through [events_of_jsonl] (tested in test/test_obs.ml);
   - Chrome trace_event: loads in Perfetto / chrome://tracing, one
     track per pid with span (B/E) and instant (i) events;
   - metrics snapshot: every counter/histogram/gauge/vector of the
     registry as one JSON object.

   All output is deterministic for a deterministic run: events are
   emitted in ring order and metrics in sorted name order. *)

(* --- events --- *)

let event_to_json (e : Ring.event) =
  Json.Obj
    [
      ("ts", Json.Int e.Ring.ev_ts);
      ("pid", Json.Int e.Ring.ev_pid);
      ("kind", Json.String (Ring.kind_name e.Ring.ev_kind));
      ("name", Json.String e.Ring.ev_name);
      ("args", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) e.Ring.ev_args));
    ]

let event_of_json j =
  let ( let* ) r f = Result.bind r f in
  let field name conv =
    match Option.bind (Json.member name j) conv with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "event: missing or ill-typed field %S" name)
  in
  let* ts = field "ts" Json.to_int in
  let* pid = field "pid" Json.to_int in
  let* kind_s = field "kind" Json.to_str in
  let* kind =
    match Ring.kind_of_name kind_s with
    | Some k -> Ok k
    | None -> Error (Printf.sprintf "event: unknown kind %S" kind_s)
  in
  let* name = field "name" Json.to_str in
  let* args =
    match Json.member "args" j with
    | Some (Json.Obj fields) ->
      List.fold_left
        (fun acc (k, v) ->
          let* acc = acc in
          match Json.to_int v with
          | Some i -> Ok ((k, i) :: acc)
          | None -> Error (Printf.sprintf "event: non-integer arg %S" k))
        (Ok []) fields
      |> Result.map List.rev
    | Some _ -> Error "event: args is not an object"
    | None -> Ok []
  in
  Ok { Ring.ev_ts = ts; ev_pid = pid; ev_kind = kind; ev_name = name; ev_args = args }

let jsonl events =
  let buf = Buffer.create 4096 in
  List.iter
    (fun e ->
      Buffer.add_string buf (Json.to_string (event_to_json e));
      Buffer.add_char buf '\n')
    events;
  Buffer.contents buf

let events_of_jsonl s =
  let ( let* ) r f = Result.bind r f in
  String.split_on_char '\n' s
  |> List.filter (fun line -> String.trim line <> "")
  |> List.fold_left
       (fun acc line ->
         let* acc = acc in
         let* j = Json.of_string line in
         let* e = event_of_json j in
         Ok (e :: acc))
       (Ok [])
  |> Result.map List.rev

(* --- Chrome trace_event format --- *)

(* One Perfetto track per simulated process: the trace's single
   "process" is the run itself (pid 0) and each simulated pid becomes a
   thread (tid), named by a thread_name metadata record.  Logical
   executor ticks are reported as microseconds — Perfetto only needs a
   monotone integer timescale. *)
let chrome_trace ?(process_name = "renaming") events =
  let pids =
    List.sort_uniq compare (List.map (fun (e : Ring.event) -> e.Ring.ev_pid) events)
  in
  let meta =
    Json.Obj
      [
        ("name", Json.String "process_name");
        ("ph", Json.String "M");
        ("pid", Json.Int 0);
        ("tid", Json.Int 0);
        ("args", Json.Obj [ ("name", Json.String process_name) ]);
      ]
    :: List.map
         (fun pid ->
           Json.Obj
             [
               ("name", Json.String "thread_name");
               ("ph", Json.String "M");
               ("pid", Json.Int 0);
               ("tid", Json.Int pid);
               ("args", Json.Obj [ ("name", Json.String (Printf.sprintf "p%d" pid)) ]);
             ])
         pids
  in
  let of_event (e : Ring.event) =
    let common =
      [
        ("name", Json.String e.Ring.ev_name);
        ("pid", Json.Int 0);
        ("tid", Json.Int e.Ring.ev_pid);
        ("ts", Json.Int e.Ring.ev_ts);
      ]
    in
    let args =
      if e.Ring.ev_args = [] then []
      else [ ("args", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) e.Ring.ev_args)) ]
    in
    let ph =
      match e.Ring.ev_kind with
      | Ring.Span_begin -> [ ("ph", Json.String "B") ]
      | Ring.Span_end -> [ ("ph", Json.String "E") ]
      | Ring.Instant -> [ ("ph", Json.String "i"); ("s", Json.String "t") ]
    in
    Json.Obj (common @ ph @ args)
  in
  Json.to_string
    (Json.Obj
       [
         ("traceEvents", Json.List (meta @ List.map of_event events));
         ("displayTimeUnit", Json.String "ms");
       ])

(* --- metrics snapshot --- *)

let hist_json h =
  Json.Obj
    [
      ("type", Json.String "histogram");
      ("count", Json.Int (Hist.count h));
      ("sum", Json.Int (Hist.sum h));
      ("max", Json.Int (Hist.max_value h));
      ("mean", if Hist.count h = 0 then Json.Null else Json.Float (Hist.mean h));
      ("bounds", Json.List (Array.to_list (Array.map (fun b -> Json.Int b) (Hist.bounds h))));
      ("counts", Json.List (Array.to_list (Array.map (fun c -> Json.Int c) (Hist.counts h))));
      ("buckets", Json.Obj (List.map (fun (l, c) -> (l, Json.Int c)) (Hist.buckets h)));
    ]

let value_json = function
  | Metrics.V_counter v -> Json.Obj [ ("type", Json.String "counter"); ("value", Json.Int v) ]
  | Metrics.V_histogram h -> hist_json h
  | Metrics.V_gauge v -> Json.Obj [ ("type", Json.String "gauge"); ("value", Json.Float v) ]
  | Metrics.V_vector arr ->
    Json.Obj
      [
        ("type", Json.String "vector");
        ("values", Json.List (Array.to_list (Array.map (fun v -> Json.Int v) arr)));
      ]

let metrics_json ?(label = "") metrics =
  let snap = Metrics.snapshot metrics in
  Json.Obj
    [
      ("schema", Json.String "renaming.metrics/1");
      ("label", Json.String label);
      ("metrics", Json.Obj (List.map (fun (name, v) -> (name, value_json v)) snap));
    ]

