module Executor = Renaming_sched.Executor
module Directed = Renaming_sched.Directed
module Json = Renaming_obs.Json

type failure = { f_kind : string; f_message : string }

type input = {
  target : Target.t;
  seed : int64;
  choices : Directed.choice list;
  max_ticks : int;
  tau_cadence : int;
}

type result = {
  r_input : input;
  r_failure : failure;
  r_choices : Directed.choice list;
  r_replays : int;
}

let execute input prefix =
  let inst = input.target.build ~seed:input.seed in
  let monitor = Monitor.create ~mode:input.target.mode inst in
  let run =
    Directed.run ~max_ticks:input.max_ticks ~tau_cadence:input.tau_cadence
      ~on_event:(Monitor.hook monitor) ~prefix inst
  in
  let failure =
    match Monitor.judge monitor run.Directed.outcome with
    | Monitor.Passed _ -> None
    | Monitor.Livelocked _ ->
      Some
        {
          f_kind = "livelock";
          f_message = Printf.sprintf "run hit the %d-tick livelock guard" input.max_ticks;
        }
    | Monitor.Failed v -> Some { f_kind = v.Monitor.kind; f_message = v.Monitor.message }
  in
  (run, failure)

let choice_pid = function
  | Directed.Step p | Directed.Fault p | Directed.Crash p | Directed.Recover p -> p

(* Delta debugging, complement-removal half: drop one of [n] chunks at a
   time; on success restart with coarser granularity, otherwise refine.
   Exits only once every single-choice removal has been tried and failed
   (granularity = length), i.e. the survivor is 1-minimal — unless [test]
   starts refusing because the replay budget ran out. *)
let rec ddmin test lst n =
  let len = List.length lst in
  if len <= 1 then lst
  else begin
    let chunk = (len + n - 1) / n in
    let rec drop_chunks i =
      if i * chunk >= len then None
      else
        let cand = List.filteri (fun j _ -> j < i * chunk || j >= (i + 1) * chunk) lst in
        if List.length cand < len && test cand then Some cand else drop_chunks (i + 1)
    in
    match drop_chunks 0 with
    | Some cand -> ddmin test cand (max 2 (n - 1))
    | None -> if n < len then ddmin test lst (min len (2 * n)) else lst
  end

let shrink ?(max_replays = 4000) input =
  let replays = ref 1 in
  let run0, fail0 = execute input input.choices in
  match fail0 with
  | None -> None
  | Some f0 ->
    let kind = f0.f_kind in
    let last_failure = ref f0 in
    let test candidate =
      if !replays >= max_replays then false
      else begin
        incr replays;
        match execute input candidate with
        | _, Some f when String.equal f.f_kind kind ->
          last_failure := f;
          true
        | _ -> false
      end
    in
    let cur = ref input.choices in
    let adopt cand = if List.length cand < List.length !cur && test cand then cur := cand in
    (* Truncate to decisions the failing run actually took: later prefix
       entries were never consumed (or were dropped as infeasible). *)
    let taken_len = Array.length run0.Directed.taken in
    if List.length !cur > taken_len then
      adopt (List.filteri (fun i _ -> i < taken_len) !cur);
    (* Semantic passes: whole classes of decisions at once. *)
    adopt (List.filter (function Directed.Fault _ -> false | _ -> true) !cur);
    adopt
      (List.filter
         (function Directed.Crash _ | Directed.Recover _ -> false | _ -> true)
         !cur);
    let pids = List.sort_uniq compare (List.map choice_pid !cur) in
    List.iter (fun p -> adopt (List.filter (fun c -> choice_pid c <> p) !cur)) pids;
    (* Structure-blind ddmin down to single-choice granularity. *)
    cur := ddmin test !cur 2;
    Some
      {
        r_input = input;
        r_failure = !last_failure;
        r_choices = !cur;
        r_replays = !replays;
      }

(* --- repro artifacts --- *)

type repro = {
  rp_algorithm : string;
  rp_n : int;
  rp_seed : int64;
  rp_max_ticks : int;
  rp_tau_cadence : int;
  rp_kind : string;
  rp_choices : Directed.choice list;
}

let to_repro r =
  let input = r.r_input in
  {
    rp_algorithm = input.target.name;
    rp_n = input.target.n;
    rp_seed = input.seed;
    rp_max_ticks = input.max_ticks;
    rp_tau_cadence = input.tau_cadence;
    rp_kind = r.r_failure.f_kind;
    rp_choices = r.r_choices;
  }

let repro_to_string r =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "algorithm: %s\n" r.rp_algorithm);
  Buffer.add_string buf (Printf.sprintf "n: %d\n" r.rp_n);
  Buffer.add_string buf (Printf.sprintf "seed: %Ld\n" r.rp_seed);
  Buffer.add_string buf (Printf.sprintf "max-ticks: %d\n" r.rp_max_ticks);
  Buffer.add_string buf (Printf.sprintf "tau-cadence: %d\n" r.rp_tau_cadence);
  Buffer.add_string buf (Printf.sprintf "kind: %s\n" r.rp_kind);
  Buffer.add_string buf "trace-format: condensed\n";
  Buffer.add_string buf "trace:\n";
  (* [rp_choices] stays the single source of truth; without decision
     points every switch renders as a [P] segment, which replays
     identically ([choices_of_condensed] treats [S] and [P] alike). *)
  Buffer.add_string buf (Directed.condensed (Array.of_list r.rp_choices) ^ "\n");
  Buffer.contents buf

let repro_to_json r =
  Json.Obj
    [
      ("algorithm", Json.String r.rp_algorithm);
      ("n", Json.Int r.rp_n);
      ("seed", Json.String (Int64.to_string r.rp_seed));
      ("kind", Json.String r.rp_kind);
      ("tau_cadence", Json.Int r.rp_tau_cadence);
      ( "choices",
        Json.List (List.map (fun c -> Json.String (Directed.choice_to_string c)) r.rp_choices) );
    ]

let repro_of_string s =
  let ( let* ) = Stdlib.Result.bind in
  let lines = String.split_on_char '\n' s in
  let rec headers acc = function
    | [] -> Error "missing \"trace:\" section"
    | line :: rest -> (
      let line = String.trim line in
      if String.equal line "" then headers acc rest
      else if String.equal line "trace:" then Ok (acc, rest)
      else
        match String.index_opt line ':' with
        | None -> Error (Printf.sprintf "malformed header line %S" line)
        | Some i ->
          let key = String.trim (String.sub line 0 i) in
          let value = String.trim (String.sub line (i + 1) (String.length line - i - 1)) in
          headers ((key, value) :: acc) rest)
  in
  let* hdrs, body = headers [] lines in
  let field key parse =
    match List.assoc_opt key hdrs with
    | None -> Error (Printf.sprintf "missing header %S" key)
    | Some v -> (
      match parse v with
      | Some x -> Ok x
      | None -> Error (Printf.sprintf "bad value %S for header %S" v key))
  in
  let* rp_algorithm = field "algorithm" Option.some in
  let* rp_n = field "n" int_of_string_opt in
  let* rp_seed = field "seed" Int64.of_string_opt in
  let* rp_max_ticks = field "max-ticks" int_of_string_opt in
  let* rp_tau_cadence = field "tau-cadence" int_of_string_opt in
  let* rp_kind = field "kind" Option.some in
  let* () = field "trace-format" (function "condensed" -> Some () | _ -> None) in
  let* rp_choices =
    List.fold_left
      (fun acc line ->
        let* acc in
        let line = String.trim line in
        if String.equal line "" then Ok acc
        else
          let* cs = Directed.choices_of_condensed line in
          Ok (acc @ cs))
      (Ok []) body
  in
  Ok
    {
      rp_algorithm;
      rp_n;
      rp_seed;
      rp_max_ticks;
      rp_tau_cadence;
      rp_kind;
      rp_choices;
    }
