(* The wall-clock request-path benchmark (README.md).

     main.exe --workload W --seed N --seconds S --trace 0|1 [--smoke]

   --trace 0 measures the end-to-end metrics: the set-up time, then
   repetitions of fixed work at the seed (one untimed warm-up first) for
   S seconds.  --trace 1 runs the attribution ladder and the workload
   with and without spans, prints the per-layer metrics and writes
   _build/e2e-traces/<workload>.trace.json.  Every metric is printed with its unit,
   and the last line is one JSON object:
   {"correct": _, "attempted": _, "failed": _, "metrics": {...}}.
   The exit code is 1 when a correctness check fails, 2 on bad usage.
   --smoke runs tiny repetitions of every workload (or the one given). *)

module Json = Renaming_obs.Json
module Rep = E2e.Rep
module Meter = E2e.Meter
module Lat = E2e.Lat
module Ladder = E2e.Ladder
module Chrome = E2e.Chrome
module Calib = E2e.Calib

let workloads =
  [ E2e.Oneshot.workload; E2e.Lease_gen.workload; E2e.Net_lossy.workload; E2e.Multicore.workload ]

let setup_samples = 21
let trace_dir = Filename.concat "_build" "e2e-traces"
let min_reps = 3
let min_pairs = 2

type metric = Ladder.metric = { name : string; value : float; unit_ : string }

let median = function
  | [] -> nan
  | l ->
    let a = Array.of_list l in
    Array.sort Float.compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let sum_by f reps = List.fold_left (fun acc r -> acc + f r) 0 reps
let fdiv = Rep.fdiv
let seconds_of_ns ns = float_of_int ns /. 1e9
let word_bytes = float_of_int (Sys.word_size / 8)

(* Words allocated between two GC snapshots, by every domain: the minor
   heap's plus those allocated straight into the major heap. *)
let allocated_words (g0 : Gc.stat) (g1 : Gc.stat) =
  g1.minor_words -. g0.minor_words +. (g1.major_words -. g0.major_words)
  -. (g1.promoted_words -. g0.promoted_words)

let git_rev () =
  let read path = try Some (String.trim (In_channel.with_open_text path In_channel.input_all)) with Sys_error _ -> None in
  match read ".git/HEAD" with
  | Some head when String.starts_with ~prefix:"ref: " head -> (
    let r = String.sub head 5 (String.length head - 5) in
    match read (Filename.concat ".git" r) with Some rev -> Json.String rev | None -> Json.String r)
  | Some rev -> Json.String rev
  | None -> Json.Null

let host () =
  Json.Obj
    [
      ("nproc", Json.Int (Domain.recommended_domain_count ()));
      ("ocaml", Json.String Sys.ocaml_version);
      ("word_size", Json.Int Sys.word_size);
      ("git_rev", git_rev ());
    ]

(* The median of [samples] set-up times, each the mean over a batch and
   scaled to reference host speed. *)
let setup_s (w : Rep.workload) ~size ~seed ~samples =
  let m = Meter.create ~traced:false w.kinds in
  median
    (List.init samples (fun _ ->
         let slowdown = Calib.slowdown ~domains:1 in
         let t0 = Meter.now () in
         for _ = 1 to w.setup_batch do
           let (_ : unit -> Rep.t) = w.prepare ~size ~seed m in
           ()
         done;
         seconds_of_ns (Meter.now () - t0) /. float_of_int w.setup_batch /. slowdown))

(* Repetitions until [seconds] have passed and at least [min] ran. *)
let repeat ~min ~seconds f =
  let deadline = Meter.now () + int_of_float (seconds *. 1e9) in
  let rec go acc n = if n >= min && Meter.now () >= deadline then List.rev acc else go (f () :: acc) (n + 1) in
  go [] 0

let warm_up (w : Rep.workload) ~size ~seed = ignore (w.prepare ~size ~seed (Meter.create ~traced:false w.kinds) ())

(* The gate: no repetition reported a failed check, and a deterministic
   workload repeated its counts exactly at one seed. *)
let rep_errors (w : Rep.workload) reps =
  let errors = List.concat_map (fun r -> r.Rep.errors) reps in
  match reps with
  | first :: rest when w.deterministic && List.exists (fun r -> r.Rep.counts <> first.Rep.counts) rest ->
    "counts differ between repetitions at one seed" :: errors
  | _ -> errors

(* Each repetition is paired with the host's slowdown measured just
   before it; its rate and median call time are scaled by it. *)
let end_to_end (w : Rep.workload) ~size ~seed ~seconds ~smoke =
  let setup = setup_s w ~size ~seed ~samples:(if smoke then 1 else setup_samples) in
  if not smoke then warm_up w ~size ~seed;
  let allocated = ref 0. in
  let measured () =
    let slowdown = Calib.slowdown ~domains:w.domains in
    let m = Meter.create ~traced:false w.kinds in
    let run = w.prepare ~size ~seed m in
    let g0 = Gc.quick_stat () in
    let r = run () in
    let g1 = Gc.quick_stat () in
    allocated := !allocated +. allocated_words g0 g1;
    (r, slowdown, Lat.percentile (Meter.lat m 0) 50.)
  in
  let samples = if smoke then [ measured () ] else repeat ~min:min_reps ~seconds measured in
  let reps = List.map (fun (r, _, _) -> r) samples in
  let ops = float_of_int (sum_by (fun r -> r.Rep.ops) reps) in
  let metrics =
    [
      { name = "setup_s"; value = setup; unit_ = "s" };
      {
        name = "ops_per_s";
        value =
          median
            (List.map (fun (r, slowdown, _) -> float_of_int r.Rep.ops /. seconds_of_ns r.Rep.wall_ns *. slowdown) samples);
        unit_ = "1/s";
      };
      { name = "call_p50_us"; value = median (List.map (fun (_, slowdown, p50) -> p50 /. slowdown /. 1e3) samples); unit_ = "us" };
      { name = "steps_per_name"; value = Rep.ratio (sum_by (fun r -> r.Rep.steps) reps) (sum_by (fun r -> r.Rep.named) reps); unit_ = "steps" };
      { name = "grant_frac"; value = Rep.ratio (sum_by (fun r -> r.Rep.granted) reps) (sum_by (fun r -> r.Rep.attempts) reps); unit_ = "ratio" };
      { name = "alloc_kb_per_op"; value = fdiv (!allocated *. word_bytes /. 1024.) ops; unit_ = "KB" };
    ]
  in
  (metrics, reps, rep_errors w reps)

let live_words () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

let traced (w : Rep.workload) ~size ~seed ~seconds ~smoke =
  let start = Meter.now () in
  let ladder, ladder_errors = Ladder.run ~seed ~smoke in
  let left = seconds -. seconds_of_ns (Meter.now () - start) in
  if not smoke then warm_up w ~size ~seed;
  let plain = Meter.create ~traced:false w.kinds and spans = Meter.create ~traced:true w.kinds in
  let minor = ref 0. and promoted = ref 0. and majors = ref 0 and live_first = ref 0 in
  let slowdowns = ref [] in
  let pairs =
    repeat ~min:(if smoke then 1 else min_pairs) ~seconds:(if smoke then 0. else left) (fun () ->
        slowdowns := Calib.slowdown ~domains:w.domains :: !slowdowns;
        let g0 = Gc.quick_stat () in
        let r = w.prepare ~size ~seed plain () in
        let g1 = Gc.quick_stat () in
        minor := !minor +. g1.Gc.minor_words -. g0.Gc.minor_words;
        promoted := !promoted +. g1.Gc.promoted_words -. g0.Gc.promoted_words;
        majors := !majors + g1.Gc.major_collections - g0.Gc.major_collections;
        if !live_first = 0 then live_first := live_words ();
        (r, w.prepare ~size ~seed spans ()))
  in
  let live_growth = Rep.ratio (live_words ()) !live_first in
  let reps = List.map fst pairs and traced_reps = List.map snd pairs in
  let path = Chrome.write ~dir:trace_dir ~workload:w.name spans in
  let trace_errors =
    match Chrome.check ~layers:w.layers (In_channel.with_open_text path In_channel.input_all) with
    | Ok _ -> []
    | Error e -> [ path ^ ": " ^ e ]
  in
  Printf.eprintf "trace: %s\n" path;
  let ops = float_of_int (sum_by (fun r -> r.Rep.ops) reps) in
  let wall r = float_of_int r.Rep.wall_ns in
  let own =
    [
      { name = "trace.overhead"; value = fdiv (median (List.map wall traced_reps)) (median (List.map wall reps)); unit_ = "ratio" };
      { name = "gc.minor_words_per_op"; value = fdiv !minor ops; unit_ = "words" };
      { name = "gc.promoted_words_per_op"; value = fdiv !promoted ops; unit_ = "words" };
      { name = "gc.major_collections"; value = fdiv (float_of_int !majors) (float_of_int (List.length reps)); unit_ = "count" };
      { name = "gc.live_growth"; value = live_growth; unit_ = "ratio" };
      {
        name = "bench.generator_share";
        value = median (List.map (fun r -> fdiv (float_of_int (r.Rep.wall_ns - r.Rep.timed_ns)) (wall r)) reps);
        unit_ = "ratio";
      };
      { name = "call.p99_us"; value = Lat.percentile (Meter.lat plain 0) 99. /. 1e3; unit_ = "us" };
      { name = "bench.host_slowdown"; value = median !slowdowns; unit_ = "ratio" };
      {
        name = "gc.heap_peak_mb";
        value = float_of_int (Gc.quick_stat ()).Gc.top_heap_words *. word_bytes /. 1048576.;
        unit_ = "MB";
      };
    ]
  in
  let growth_errors =
    if live_growth > 1.5 then [ Printf.sprintf "live heap grew %.2fx across repetitions" live_growth ] else []
  in
  (ladder @ own, reps @ traced_reps, ladder_errors @ rep_errors w reps @ rep_errors w traced_reps @ trace_errors @ growth_errors)

let report (w : Rep.workload) (metrics, reps, errors) =
  let errors =
    errors
    @ List.filter_map
        (fun m -> if Float.is_finite m.value then None else Some (m.name ^ " is not a number"))
        metrics
  in
  List.iter (fun e -> Printf.eprintf "%s: FAILED %s\n" w.name e) errors;
  Printf.printf "workload %s\nhost %s\n" w.name (Json.to_string (host ()));
  List.iter (fun m -> Printf.printf "  %-34s %-14.6g %s\n" m.name m.value m.unit_) metrics;
  let correct = errors = [] in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int (max 1 (sum_by (fun r -> r.Rep.ops) reps)));
            ("failed", Json.Int (sum_by (fun r -> r.Rep.failed) reps));
            ( "metrics",
              Json.Obj
                (List.map
                   (fun m -> (m.name, Json.Obj [ ("value", Json.Float m.value); ("unit", Json.String m.unit_) ]))
                   metrics) );
          ]));
  correct

let usage = "main.exe --workload W --seed N --seconds S --trace 0|1 [--smoke]"

let () =
  let workload = ref None and seed = ref 1 and seconds = ref 10. and trace = ref 0 and smoke = ref false in
  let specs =
    [
      ("--workload", Arg.String (fun s -> workload := Some s), "W one of oneshot, lease-direct, net-lossy, multicore");
      ("--seed", Arg.Set_int seed, "N input seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S how long to measure (default 10)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0) or per-layer metrics and a trace file (1)");
      ("--smoke", Arg.Set smoke, " tiny repetitions; every workload unless --workload is given");
    ]
  in
  let fail msg =
    prerr_endline (msg ^ "\nusage: " ^ usage);
    exit 2
  in
  Arg.parse specs (fun a -> fail ("unexpected argument " ^ a)) usage;
  if !trace <> 0 && !trace <> 1 then fail "--trace must be 0 or 1";
  if not (!seconds > 0.) then fail "--seconds must be positive";
  let chosen =
    match !workload with
    | None when !smoke -> workloads
    | None -> fail "--workload is required"
    | Some name -> (
      match List.find_opt (fun (w : Rep.workload) -> w.name = name) workloads with
      | Some w -> [ w ]
      | None -> fail ("unknown workload " ^ name))
  in
  let seed = Int64.of_int !seed and smoke = !smoke and seconds = !seconds in
  let results =
    List.map
      (fun (w : Rep.workload) ->
        let size = if smoke then w.smoke else w.full in
        report w
          (if !trace = 1 then traced w ~size ~seed ~seconds ~smoke
           else end_to_end w ~size ~seed ~seconds ~smoke))
      chosen
  in
  exit (if List.for_all Fun.id results then 0 else 1)
