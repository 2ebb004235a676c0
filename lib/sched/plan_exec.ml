module Plan = Renaming_plan.Plan
module Sample = Renaming_rng.Sample
module Obs = Renaming_obs.Obs
module Metrics = Renaming_obs.Metrics

(* The plans' telemetry, stage by stage; see the .mli. *)
type stage =
  | Rounds of { prefix : string; span : string; first : int; named : int array option }
  | Span of string * (string * int) list
  | Instant of string

(* A stage, the segment it starts at, and a [Rounds] stage's probes and
   wins counters. *)
type part = { from : int; stage : stage; counters : (Metrics.counter * Metrics.counter) option }

type spans = { obs : Obs.scoped option; parts : part array }

let counts_wins = function _, Rounds { named = Some _; _ } -> true | _ -> false

let spans ?obs stages =
  if obs = None && not (List.exists counts_wins stages) then None
  else
    let part (from, stage) =
      match (stage, obs) with
      | Rounds { prefix; _ }, Some s ->
        let o = Obs.scoped_obs s in
        let counters = (Obs.counter o (prefix ^ "/probes"), Obs.counter o (prefix ^ "/wins")) in
        { from; stage; counters = Some counters }
      | _ -> { from; stage; counters = None }
    in
    Some { obs; parts = Array.of_list (List.map part stages) }

(* The stage holding segment [seg]: the last to start at or before it. *)
let part_at t seg =
  let i = ref (Array.length t.parts - 1) in
  while !i > 0 && t.parts.(!i).from > seg do
    decr i
  done;
  t.parts.(!i)

(* [enter] has reached segment [seg], or the plan's end [len]: the stage
   before ran out if a stage starts here, and that stage opens. *)
let on_cross t ~len seg =
  match t.obs with
  | None -> ()
  | Some s -> (
    let p = part_at t seg in
    (if seg = len || (p.from = seg && seg > 0) then
       match (part_at t (seg - 1)).stage with
       | Rounds _ -> Obs.s_instant s "give-up"
       | Span (name, _) -> Obs.s_end s name
       | Instant _ -> ());
    match p.stage with
    | Span (name, args) when p.from = seg && seg < len -> Obs.s_begin s ~args name
    | Instant name when p.from = seg && seg < len -> Obs.s_instant s name
    | _ -> ())

let on_enter t seg =
  match (part_at t seg, t.obs) with
  | { stage = Rounds { span; first; _ }; from; _ }, Some s ->
    Obs.s_begin s ~args:[ (span, seg - from + first) ] span
  | _ -> ()

let on_probe t seg target =
  match part_at t seg with
  | { stage = Rounds _; counters; _ } -> (
    (match counters with Some (probes, _) -> Metrics.incr probes | None -> ());
    match t.obs with Some s -> Obs.s_instant s ~args:[ ("target", target) ] "probe" | None -> ())
  | _ -> ()

let on_win t seg name =
  let p = part_at t seg in
  match p.stage with
  | Rounds { span; first; named; _ } -> (
    (match named with Some a -> a.(seg - p.from) <- a.(seg - p.from) + 1 | None -> ());
    (match p.counters with Some (_, wins) -> Metrics.incr wins | None -> ());
    match t.obs with
    | Some s ->
      Obs.s_instant s ~args:[ (span, seg - p.from + first); ("name", name) ] "win";
      Obs.s_end s span
    | None -> ())
  | Span (span, _) -> ( match t.obs with Some s -> Obs.s_end s span | None -> ())
  | Instant _ -> ()

let on_leave t seg =
  match (part_at t seg, t.obs) with
  | { stage = Rounds { span; _ }; _ }, Some s -> Obs.s_end s span
  | _ -> ()

(* One process: [left] steps remain in segment [seg] (a Probe's probes,
   a Sweep's cells, whose cursor is [size - left]), and [target] is the
   register of the TAS in flight.  [resume] is the one continuation every
   probe step parks with. *)
type state = {
  plan : Plan.t;
  rng : Renaming_rng.Xoshiro.t option;
  spans : spans option;
  mutable seg : int;
  mutable left : int;
  mutable target : int;
  mutable resume : Op.response -> int option Program.t;
}

let no_rng () = invalid_arg "Plan_exec.program: a Probe segment needs ~rng"

(* Enter the first non-empty segment at or after [seg] and issue its
   first TAS, or give up past the last one. *)
let rec enter st seg =
  (match st.spans with Some t -> on_cross t ~len:(Array.length st.plan) seg | None -> ());
  if seg >= Array.length st.plan then Program.Done None
  else
    match st.plan.(seg) with
    | Plan.Probe { size; count; _ } when size > 0 && count > 0 -> start st seg count
    | Plan.Sweep { size; _ } when size > 0 -> start st seg size
    | Plan.Probe _ | Plan.Sweep _ -> enter st (seg + 1)

and start st seg left =
  st.seg <- seg;
  st.left <- left;
  (match st.spans with Some t -> on_enter t seg | None -> ());
  issue st

and issue st =
  let target =
    match st.plan.(st.seg) with
    | Plan.Probe { base; size; count = _ } -> (
      match st.rng with Some rng -> base + Sample.uniform_int rng size | None -> no_rng ())
    | Plan.Sweep { base; size } -> base + size - st.left
  in
  st.left <- st.left - 1;
  st.target <- target;
  (match st.spans with Some t -> on_probe t st.seg target | None -> ());
  Program.Step (Op.Tas_name target, st.resume)

let lost st =
  if st.left > 0 then issue st
  else begin
    (match st.spans with Some t -> on_leave t st.seg | None -> ());
    enter st (st.seg + 1)
  end

let won st =
  (match st.spans with Some t -> on_win t st.seg st.target | None -> ());
  Program.Done (Some st.target)

let after_retry st won_it = if won_it then won st else lost st

let on_response st = function
  | Op.Bool true -> won st
  | Op.Bool false -> lost st
  | Op.Faulted -> Retry.tas_name_after_fault st.target (after_retry st)
  | resp ->
    Format.kasprintf failwith "Plan_exec: operation %a got response %a" Op.pp
      (Op.Tas_name st.target) Op.pp_response resp

let unset _ = Program.Done None

let program ?spans ?rng plan =
  let st = { plan; rng; spans; seg = 0; left = 0; target = 0; resume = unset } in
  st.resume <- on_response st;
  match enter st 0 with
  | Program.Done _ as finished -> finished
  | Program.Step (op, _) ->
    let seg = st.seg and left = st.left and target = st.target in
    Program.Step
      ( op,
        fun resp ->
          st.seg <- seg;
          st.left <- left;
          st.target <- target;
          on_response st resp )
