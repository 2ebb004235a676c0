module Plan = Renaming_plan.Plan
module Sample = Renaming_rng.Sample
module Obs = Renaming_obs.Obs
module Metrics = Renaming_obs.Metrics

(* The loose algorithms' telemetry; see the .mli. *)
type spans = {
  obs : Obs.scoped option;
  named : int array option;
  span : string;
  first : int;
  counters : (Metrics.counter * Metrics.counter) option;  (* probes, wins *)
}

let spans ?named ?obs ~prefix ~span ~first () =
  if named = None && obs = None then None
  else
    let counters =
      Option.map
        (fun s ->
          let o = Obs.scoped_obs s in
          (Obs.counter o (prefix ^ "/probes"), Obs.counter o (prefix ^ "/wins")))
        obs
    in
    Some { obs; named; span; first; counters }

let on_enter t seg =
  match t.obs with Some s -> Obs.s_begin s ~args:[ (t.span, seg + t.first) ] t.span | None -> ()

let on_probe t target =
  (match t.counters with Some (probes, _) -> Metrics.incr probes | None -> ());
  match t.obs with Some s -> Obs.s_instant s ~args:[ ("target", target) ] "probe" | None -> ()

let on_win t seg name =
  (match t.named with Some a -> a.(seg) <- a.(seg) + 1 | None -> ());
  (match t.counters with Some (_, wins) -> Metrics.incr wins | None -> ());
  match t.obs with
  | Some s ->
    Obs.s_instant s ~args:[ (t.span, seg + t.first); ("name", name) ] "win";
    Obs.s_end s t.span
  | None -> ()

let on_leave t = match t.obs with Some s -> Obs.s_end s t.span | None -> ()
let on_give_up t = match t.obs with Some s -> Obs.s_instant s "give-up" | None -> ()

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
  if seg >= Array.length st.plan then begin
    (match st.spans with Some t -> on_give_up t | None -> ());
    Program.Done None
  end
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
  (match st.spans with Some t -> on_probe t target | None -> ());
  Program.Step (Op.Tas_name target, st.resume)

let lost st =
  if st.left > 0 then issue st
  else begin
    (match st.spans with Some t -> on_leave t | None -> ());
    enter st (st.seg + 1)
  end

let won st =
  (match st.spans with Some t -> on_win t st.seg st.target | None -> ());
  Program.Done (Some st.target)

let after_retry st won_it = if won_it then won st else lost st

let on_response st = function
  | Op.Bool true -> won st
  | Op.Bool false -> lost st
  | Op.Faulted -> Program.bind (Retry.tas_name_after_fault st.target) (after_retry st)
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
