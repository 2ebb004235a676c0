module Clock = Renaming_clock.Clock
module Obs = Renaming_obs.Obs
module Metrics = Renaming_obs.Metrics
module Hist = Renaming_obs.Hist

type config = { lease : Lease.config; admission : Admission.config }

type wake = { mutable at : float; mutable on_held : float }

let make_config ?lease ?admission () =
  let lease = match lease with Some l -> l | None -> Lease.make_config ~capacity:64 () in
  let admission = match admission with Some a -> a | None -> Admission.make_config () in
  { lease; admission }

type stats = {
  mutable grants : int;
  mutable queued : int;
  mutable renews : int;
  mutable releases : int;
  mutable fenced : int;
  mutable sheds_high_water : int;
  mutable sheds_queue_full : int;
  mutable expired_requests : int;
  mutable reclaims : int;
  mutable validates : int;
}

type counters = {
  c_grants : Metrics.counter;
  c_renews : Metrics.counter;
  c_releases : Metrics.counter;
  c_fenced : Metrics.counter;
  c_sheds : Metrics.counter;
  c_expired : Metrics.counter;
  c_reclaims : Metrics.counter;
}

(* One meter set for every body that shares it: the counts live as long
   as the set, not as long as a body. *)
type meters = {
  st : stats;
  counters : counters option;
  h_probes : Hist.t;
  h_reclaim : Hist.t;
  h_wait : Hist.t;
  h_lifetime : Hist.t;
}

let meters ?obs () =
  let hist name = match obs with Some o -> Obs.histogram o name | None -> Hist.create () in
  let counters =
    Option.map
      (fun o ->
        {
          c_grants = Obs.counter o "service/grants";
          c_renews = Obs.counter o "service/renews";
          c_releases = Obs.counter o "service/releases";
          c_fenced = Obs.counter o "service/fenced";
          c_sheds = Obs.counter o "service/sheds";
          c_expired = Obs.counter o "service/expired_requests";
          c_reclaims = Obs.counter o "service/reclaims";
        })
      obs
  in
  {
    st =
      {
        grants = 0;
        queued = 0;
        renews = 0;
        releases = 0;
        fenced = 0;
        sheds_high_water = 0;
        sheds_queue_full = 0;
        expired_requests = 0;
        reclaims = 0;
        validates = 0;
      };
    counters;
    h_probes = hist "service/probes";
    h_reclaim = hist "service/reclaim_lateness";
    h_wait = hist "service/queue_wait";
    h_lifetime = hist "service/lease_lifetime";
  }

type t = {
  cfg : config;
  clock : Clock.t;
  rng : Renaming_rng.Xoshiro.t;
  lease : Lease.t;
  admission : Admission.t;
  tap : (now:float -> Audit.event -> unit) option;
  wake : wake option;
  m : meters;
}

let centiticks x = if x <= 0. then 0 else int_of_float ((x *. 100.) +. 0.5)

let create ?meters:m ?tap ?wake ~clock ~rng (cfg : config) =
  {
    cfg;
    clock;
    rng;
    lease = Lease.create cfg.lease;
    admission = Admission.create cfg.admission;
    tap;
    wake;
    m = (match m with Some m -> m | None -> meters ());
  }

let bump t f = match t.m.counters with Some c -> Metrics.incr (f c) | None -> ()

let capacity t = t.cfg.lease.Lease.capacity
let ttl t = t.cfg.lease.Lease.ttl

let next_due t =
  if Admission.depth t.admission > 0 then neg_infinity else Lease.next_due t.lease

(* Lower the shared wake cell to this body's due time.  Every operation
   that can move that time earlier (a grant into an empty expiry heap, a
   request that queues, a release that makes compaction due) ends here. *)
let note_due t =
  match t.wake with
  | None -> ()
  | Some w ->
    let due = next_due t in
    if due < w.at then w.at <- due

let note_held t =
  match t.wake with
  | None -> ()
  | Some w -> if w.on_held < w.at then w.at <- w.on_held

(* Every entry point reclaims first: expiry work is driven by whoever
   touches the service, so no background thread is needed and the
   tap always hears reclaims before any operation at the same instant
   could observe the freed slot.  Nothing due (the common case)
   returns before the closure and the list are built. *)
let reclaim t ~now =
  if Lease.due t.lease ~now then
    List.iter
      (fun (r : Lease.reclaimed) ->
        (match t.tap with
        | Some f -> f ~now (Audit.Reclaimed { fence = r.Lease.r_fence })
        | None -> ());
        t.m.st.reclaims <- t.m.st.reclaims + 1;
        bump t (fun c -> c.c_reclaims);
        note_held t;
        Hist.observe t.m.h_reclaim (centiticks r.Lease.r_lateness))
      (Lease.reclaim_expired t.lease ~now)

(* Callers must ensure [held < capacity]; the lease table then cannot
   refuse (the probe cap falls back to a sweep over a non-full table). *)
let do_grant t ~session ~now =
  match Lease.acquire t.lease ~session ~now ~rng:t.rng with
  | Error `At_capacity -> invalid_arg "Service.do_grant: called at capacity"
  | Ok grant ->
    (match t.tap with
    | Some f ->
      f ~now
        (Audit.Granted { fence = grant.Lease.g_fence; expires = now +. ttl t; capacity = capacity t })
    | None -> ());
    t.m.st.grants <- t.m.st.grants + 1;
    bump t (fun c -> c.c_grants);
    note_held t;
    Hist.observe t.m.h_probes grant.Lease.g_probes;
    grant

type outcome =
  | Granted of Lease.grant
  | Queued of int
  | Shed of Admission.shed_reason

let acquire t ~session =
  let now = Clock.now t.clock in
  reclaim t ~now;
  let util = Lease.utilization t.lease in
  let outcome =
    if
      Admission.depth t.admission = 0
      && util < t.cfg.admission.Admission.high_water
      && Lease.held t.lease < capacity t
    then Granted (do_grant t ~session ~now)
    else
      match Admission.offer t.admission ~session ~now ~utilization:util with
      | Error reason ->
        (match reason with
        | Admission.High_water -> t.m.st.sheds_high_water <- t.m.st.sheds_high_water + 1
        | Admission.Queue_full -> t.m.st.sheds_queue_full <- t.m.st.sheds_queue_full + 1);
        bump t (fun c -> c.c_sheds);
        Shed reason
      | Ok ticket ->
        t.m.st.queued <- t.m.st.queued + 1;
        Queued ticket
  in
  note_due t;
  outcome

let renew t ~fence =
  let now = Clock.now t.clock in
  reclaim t ~now;
  let result = Lease.renew t.lease ~fence ~now in
  let accepted = Result.is_ok result in
  (match t.tap with
  | Some f ->
    let expires = match result with Ok e -> e | Error `Fenced -> 0. in
    f ~now (Audit.Renewed { fence; expires; accepted })
  | None -> ());
  if accepted then begin
    t.m.st.renews <- t.m.st.renews + 1;
    bump t (fun c -> c.c_renews)
  end
  else begin
    t.m.st.fenced <- t.m.st.fenced + 1;
    bump t (fun c -> c.c_fenced)
  end;
  (* No [note_due]: the expiry a renew pushes, [now + ttl], is no
     earlier than any entry in the expiry heap (each was pushed at an
     earlier [now] with the same ttl), and [Lease.renew] leaves no
     compaction due, so the due time cannot have moved earlier. *)
  result

let use t ~fence =
  let now = Clock.now t.clock in
  reclaim t ~now;
  let result = Lease.validate t.lease ~fence in
  let accepted = Result.is_ok result in
  (match t.tap with Some f -> f ~now (Audit.Validated { fence; accepted }) | None -> ());
  t.m.st.validates <- t.m.st.validates + 1;
  if not accepted then begin
    t.m.st.fenced <- t.m.st.fenced + 1;
    bump t (fun c -> c.c_fenced)
  end;
  result

let release t ~fence =
  let now = Clock.now t.clock in
  reclaim t ~now;
  let result = Lease.release t.lease ~fence ~now in
  let accepted = Result.is_ok result in
  (match t.tap with Some f -> f ~now (Audit.Released { fence; accepted }) | None -> ());
  (match result with
  | Ok held_for ->
    t.m.st.releases <- t.m.st.releases + 1;
    bump t (fun c -> c.c_releases);
    Hist.observe t.m.h_lifetime (centiticks held_for);
    note_held t
  | Error `Fenced ->
    t.m.st.fenced <- t.m.st.fenced + 1;
    bump t (fun c -> c.c_fenced));
  note_due t;
  result

type completion =
  | Done of { ticket : int; session : int; grant : Lease.grant; waited : float }
  | Timed_out of { ticket : int; session : int; waited : float }

let pump_due t ~now =
  reclaim t ~now;
  let timed_out =
    List.map
      (fun (x : Admission.expired) ->
        t.m.st.expired_requests <- t.m.st.expired_requests + 1;
        bump t (fun c -> c.c_expired);
        Hist.observe t.m.h_wait (centiticks x.Admission.x_waited);
        Timed_out
          {
            ticket = x.Admission.x_ticket;
            session = x.Admission.x_session;
            waited = x.Admission.x_waited;
          })
      (Admission.expire t.admission ~now)
  in
  let rec drain acc =
    if Lease.held t.lease >= capacity t then List.rev acc
    else
      match Admission.take t.admission ~now with
      | None -> List.rev acc
      | Some (ticket, session, waited) ->
        let grant = do_grant t ~session ~now in
        Hist.observe t.m.h_wait (centiticks waited);
        drain (Done { ticket; session; grant; waited } :: acc)
  in
  let completions = timed_out @ drain [] in
  note_due t;
  completions

(* Before [next_due] every step of [pump_due] is a no-op, so the pump
   returns before touching anything.  The test is [next_due <= now]
   asked as bools: a float [next_due] would be boxed on the way back
   from [Lease]. *)
let pump t =
  let now = Clock.now t.clock in
  if Admission.depth t.admission > 0 || Lease.due t.lease ~now then pump_due t ~now else []

let held t = Lease.held t.lease
let slots t = Lease.slots t.lease
let stats m = m.st
let probes_hist m = m.h_probes
let reclaim_lateness_hist m = m.h_reclaim
let queue_wait_hist m = m.h_wait
let lifetime_hist m = m.h_lifetime
