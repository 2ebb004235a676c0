(* The telemetry capability: a metrics registry, a bounded event ring
   and a logical clock, passed explicitly (as [Obs.t option]) through
   the algorithms, executors and campaign runners.

   The disabled mode IS the [None] case: every instrumentation site is
   a single [match obs with None -> () | Some o -> ...] branch, so a
   run without a capability pays one predictable branch per recording
   site and allocates nothing.  test/test_tick.ml holds that bound as
   words per simulator tick. *)

type t = {
  metrics : Metrics.t;
  ring : Ring.t;
  mutable now : unit -> int;
}

let create ?ring_capacity () =
  { metrics = Metrics.create (); ring = Ring.create ?capacity:ring_capacity (); now = (fun () -> 0) }

let metrics t = t.metrics
let ring t = t.ring

(* The executor installs its tick counter here at run start, so events
   recorded from inside program continuations carry executor time. *)
let set_now t f = t.now <- f

let counter t name = Metrics.counter t.metrics name
let histogram ?bounds t name = Metrics.histogram ?bounds t.metrics name
let gauge t name f = Metrics.gauge t.metrics name f
let vector t name arr = Metrics.vector t.metrics name arr

let event t ~pid ~kind ?(args = []) name =
  Ring.add t.ring
    { Ring.ev_ts = t.now (); ev_pid = pid; ev_kind = kind; ev_name = name; ev_args = args }

let instant t ~pid ?args name = event t ~pid ~kind:Ring.Instant ?args name
let span_begin t ~pid ?args name = event t ~pid ~kind:Ring.Span_begin ?args name
let span_end t ~pid ?args name = event t ~pid ~kind:Ring.Span_end ?args name

let events t = Ring.to_list t.ring

(* A per-pid view, so algorithm programs (which know their pid only at
   instance-construction time) can record events without threading the
   pid through every recursive call. *)
type scoped = { sc_obs : t; sc_pid : int }

let scoped t ~pid = { sc_obs = t; sc_pid = pid }
let scoped_obs s = s.sc_obs

let s_instant s ?args name = instant s.sc_obs ~pid:s.sc_pid ?args name
let s_begin s ?args name = span_begin s.sc_obs ~pid:s.sc_pid ?args name
let s_end s ?args name = span_end s.sc_obs ~pid:s.sc_pid ?args name
