module Obs = Renaming_obs.Obs
module Metrics = Renaming_obs.Metrics

type violation = { v_index : int; v_event : Obs_event.t; v_reason : string }

let pp_violation ppf v =
  Format.fprintf ppf "event %d (%a): %s" v.v_index Obs_event.pp v.v_event v.v_reason

type counters = { c_events : Metrics.counter; c_stutters : Metrics.counter; c_violations : Metrics.counter }

type t = {
  spec : Spec.t;
  mutable events : int;
  mutable stutters : int;
  mutable violations : int;
  counters : counters option;
}

let create ?obs ~config () =
  let counters =
    Option.map
      (fun o ->
        let m = Obs.metrics o in
        {
          c_events = Metrics.counter m "refine/events";
          c_stutters = Metrics.counter m "refine/stutters";
          c_violations = Metrics.counter m "refine/violations";
        })
      obs
  in
  {
    spec = Spec.create config;
    events = 0;
    stutters = 0;
    violations = 0;
    counters;
  }

(* Count one event and tally its verdict.  A rejection's reason comes
   back to be recorded against the event, which the timed calls build
   only then. *)
let tally t (v : Spec.verdict) =
  t.events <- t.events + 1;
  Option.iter (fun c -> Metrics.incr c.c_events) t.counters;
  match v with
  | `Step -> None
  | `Stutter ->
      t.stutters <- t.stutters + 1;
      Option.iter (fun c -> Metrics.incr c.c_stutters) t.counters;
      None
  | `Reject reason -> Some reason

let reject t ev reason =
  t.violations <- t.violations + 1;
  Option.iter (fun c -> Metrics.incr c.c_violations) t.counters;
  `Violation { v_index = t.events - 1; v_event = ev; v_reason = reason }

let judge t ev v = match tally t v with None -> `Ok | Some reason -> reject t ev reason
let observe t ev = judge t ev (Spec.apply t.spec ev)
let observe_at t ~now ev = judge t ev (Spec.at t.spec ~now ev)

(* The timed calls judge a session's hold on a name without an event;
   [mk] builds the one recorded against a rejection, and only then. *)
let judge_hold t v ~session ~name mk =
  match tally t v with None -> `Ok | Some reason -> reject t (mk session name) reason

let granted session name = Obs_event.Granted { session; name }
let claimed session name = Obs_event.Claimed { session; name }
let reclaimed session name = Obs_event.Reclaimed { session; name }

let lease t ~now ~session ~name ~expires ~slice ~capacity =
  judge_hold t (Spec.lease t.spec ~now ~session ~name ~expires ~slice ~capacity) ~session ~name granted

let renew t ~now ~session ~name ~expires =
  judge_hold t (Spec.renew t.spec ~now ~session ~name ~expires) ~session ~name claimed

let use t ~now ~session ~name = judge_hold t (Spec.use t.spec ~now ~session ~name) ~session ~name claimed

let absorb t ~now ~session ~name =
  judge_hold t (Spec.absorb t.spec ~now ~session ~name) ~session ~name reclaimed

let stutter t = ignore (tally t `Stutter : string option)

let spec t = t.spec
let events t = t.events
let stutters t = t.stutters
let violations t = t.violations
