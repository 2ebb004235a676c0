module Clock = Renaming_clock.Clock
module Stream = Renaming_rng.Stream
module Obs = Renaming_obs.Obs
module Metrics = Renaming_obs.Metrics
module Longlived = Renaming_longlived.Longlived

type config = {
  shards : int;
  slices : int;
  slice_capacity : int;
  epsilon : float;
  ttl : float;
  queue_limit : int;
  request_timeout : float;
  high_water : float;
  grace : float;
  hot_util : float;
  cold_util : float;
  auto_rebalance : bool;
}

let make_config ?(shards = 4) ?(slices = 8) ?(slice_capacity = 16) ?(epsilon = 0.5)
    ?(ttl = 10.0) ?(queue_limit = 16) ?(request_timeout = 5.0) ?(high_water = 0.9)
    ?grace ?(hot_util = 0.7) ?(cold_util = 0.55) ?(auto_rebalance = true) () =
  if shards < 1 then invalid_arg "Router.make_config: shards must be >= 1";
  if slices < shards then invalid_arg "Router.make_config: slices must be >= shards";
  if slice_capacity < 1 then invalid_arg "Router.make_config: slice_capacity must be >= 1";
  if ttl <= 0. then invalid_arg "Router.make_config: ttl must be positive";
  let grace = match grace with Some g -> g | None -> 1.5 *. ttl in
  (* Absorbing a dead shard's slice before every lease it could have
     issued has expired would regrant live names: the grace period is
     the safety argument, so it is a hard config invariant. *)
  if grace < ttl then invalid_arg "Router.make_config: grace must be >= ttl";
  {
    shards;
    slices;
    slice_capacity;
    epsilon;
    ttl;
    queue_limit;
    request_timeout;
    high_water;
    grace;
    hot_util;
    cold_util;
    auto_rebalance;
  }

(* The slice-ownership directory entry: the single source of truth for
   who serves a slice.  Epochs are bumped on *every* ownership
   transition (handoff completion, abort, adoption), so a body whose
   recorded epoch does not match the directory is stale and unreachable. *)
type entry =
  | Owned of { shard : int; epoch : int }
  | In_transit of { from_ : int; to_ : int; epoch : int; since : float }
  | Orphaned of { last : int; epoch : int; since : float }

type stats = {
  mutable handoffs_started : int;
  mutable handoffs_completed : int;
  mutable handoffs_aborted : int;
  mutable handoffs_orphaned : int;
  mutable adoptions : int;
  mutable redirects : int;
  mutable shard_downs : int;
  mutable in_handoff_busy : int;
  mutable fenced_ops : int;
  mutable pumps : int;
  mutable full_pumps : int;
}

(* {2 Failure detection}, as router.mli describes it. *)

type detector_stats = {
  mutable suspicions : int;
  mutable recoveries : int;  (** suspicions cleared by a late heartbeat *)
  mutable reowns : int;  (** orphaned slices handed back on recovery *)
  mutable incarnation_orphans : int;  (** slices orphaned by a restart heartbeat *)
}

type detector = {
  d_suspicion : float;  (* [infinity]: never suspects *)
  d_last : float array;  (* shard -> last heartbeat arrival *)
  d_incarnation : int array;
  d_flag : bool array;  (* suspicion edge state, for counting + re-own *)
  d_st : detector_stats;
}

type counters = {
  c_redirects : Metrics.counter;
  c_shard_down : Metrics.counter;
  c_handoffs : Metrics.counter;
  c_adoptions : Metrics.counter;
}

type tap_event =
  | Tap_audit of { slice : int; now : float; ev : Audit.event }
  | Tap_absorb of { slice : int; now : float }

(* The deadlines [pump]'s guard checks besides the wake cell, kept in
   the arithmetic of the phases they stand for.  Float-only, so updating
   them allocates nothing. *)
type deadlines = {
  mutable hb_oldest : float;  (* oldest last heartbeat of an unsuspected shard *)
  mutable since_oldest : float;  (* oldest orphan grace clock that can still run out *)
}

type t = {
  cfg : config;
  clock : Clock.t;
  stream : Stream.t;
  wake : Service.wake;
  due : deadlines;
  shards : Shard.t array;
  dir : entry array;
  slice_width : int;
  st : stats;
  meters : Service.meters;
  dedup : Dedup.stats;
  counters : counters option;
  tap : (tap_event -> unit) option;
  fd : detector;
}

let bump t f = match t.counters with Some c -> Metrics.incr (f c) | None -> ()

(* A fresh body, its request state empty; it counts into the run-wide
   meters and dedup stats. *)
let slice_body t ~slice ~epoch =
  let rng =
    Stream.fork_named t.stream ~name:(Printf.sprintf "slice-%d-epoch-%d" slice epoch)
  in
  let lease =
    Lease.make_config ~epsilon:t.cfg.epsilon ~ttl:t.cfg.ttl ~capacity:t.cfg.slice_capacity
      ()
  in
  let admission =
    Admission.make_config ~queue_limit:t.cfg.queue_limit
      ~request_timeout:t.cfg.request_timeout ~high_water:t.cfg.high_water ()
  in
  let tap = Option.map (fun f ~now ev -> f (Tap_audit { slice; now; ev })) t.tap in
  {
    Shard.sl_id = slice;
    sl_epoch = epoch;
    sl_svc =
      Service.create ~meters:t.meters ?tap ~wake:t.wake ~clock:t.clock ~rng
        { Service.lease; admission };
    sl_dedup = Dedup.create t.dedup;
    sl_waits = Hashtbl.create 8;
  }

let create ?obs ?tap ?suspicion ~clock ~seed cfg =
  (match suspicion with
  | Some s when s <= 0. -> invalid_arg "Router.create: suspicion must be > 0"
  | _ -> ());
  let suspicion = Option.value suspicion ~default:infinity in
  let now = Clock.now clock in
  let slice_width = Longlived.namespace_for ~sessions:cfg.slice_capacity ~epsilon:cfg.epsilon in
  let counters =
    Option.map
      (fun o ->
        {
          c_redirects = Obs.counter o "router/redirects";
          c_shard_down = Obs.counter o "router/shard_down";
          c_handoffs = Obs.counter o "router/handoffs";
          c_adoptions = Obs.counter o "router/adoptions";
        })
      obs
  in
  (* A held count steers the pump only through rebalancing. *)
  let wake =
    {
      Service.at = neg_infinity;
      on_held = (if cfg.auto_rebalance then neg_infinity else infinity);
    }
  in
  let t =
    {
      cfg;
      clock;
      stream = Stream.create seed;
      wake;
      due = { hb_oldest = now; since_oldest = infinity };
      shards = Array.init cfg.shards (fun id -> Shard.create ~id ~wake);
      dir = Array.make cfg.slices (Owned { shard = 0; epoch = 0 });
      slice_width;
      st =
        {
          handoffs_started = 0;
          handoffs_completed = 0;
          handoffs_aborted = 0;
          handoffs_orphaned = 0;
          adoptions = 0;
          redirects = 0;
          shard_downs = 0;
          in_handoff_busy = 0;
          fenced_ops = 0;
          pumps = 0;
          full_pumps = 0;
        };
      meters = Service.meters ?obs ();
      dedup = { Dedup.fresh = 0; replays = 0; stale = 0; evictions = 0 };
      counters;
      tap;
      (* Every shard starts unsuspected, with a heartbeat as of now. *)
      fd =
        {
          d_suspicion = suspicion;
          d_last = Array.make cfg.shards now;
          d_incarnation = Array.make cfg.shards 0;
          d_flag = Array.make cfg.shards false;
          d_st = { suspicions = 0; recoveries = 0; reowns = 0; incarnation_orphans = 0 };
        };
    }
  in
  (* Initial placement: contiguous slice ranges per shard, so a Zipf-hot
     key range lands on one shard and rebalancing has work to do. *)
  for slice = 0 to cfg.slices - 1 do
    let shard = slice * cfg.shards / cfg.slices in
    t.dir.(slice) <- Owned { shard; epoch = 0 };
    Shard.attach t.shards.(shard) (slice_body t ~slice ~epoch:0)
  done;
  t

let slices t = t.cfg.slices
let slice_width t = t.slice_width
let stats t = t.st
let meters t = t.meters
let dedup_stats t = t.dedup
let shard t ~id = t.shards.(id)

let slice_of_key t ~key =
  let m = key mod t.cfg.slices in
  if m < 0 then m + t.cfg.slices else m

let owner t ~slice =
  match t.dir.(slice) with Owned { shard; _ } -> Some shard | _ -> None

let slice_epoch t ~slice =
  match t.dir.(slice) with
  | Owned { epoch; _ } | In_transit { epoch; _ } | Orphaned { epoch; _ } -> epoch

let total_held t =
  let n = ref 0 in
  for id = 0 to Array.length t.shards - 1 do
    n := !n + Shard.held t.shards.(id)
  done;
  !n

(* Routing availability: the detector's view, which never reads a
   shard's status. *)
let shard_available t ~shard ~now = now -. t.fd.d_last.(shard) <= t.fd.d_suspicion

(* The next pump after a directory write runs in full. *)
let force t = t.wake.Service.at <- neg_infinity

let set_entry t ~slice entry =
  t.dir.(slice) <- entry;
  force t

let orphan_entry t ~slice ~last ~epoch ~since =
  set_entry t ~slice (Orphaned { last; epoch; since })

let detector_stats t = t.fd.d_st

(* Orphan every slice the directory maps to [shard], from [since]; a
   slice in transit *from* it is orphaned from the earlier of the two
   timestamps so the grace clock never restarts in the slice's favour. *)
let orphan_mapped t ~shard ~since =
  let n = ref 0 in
  Array.iteri
    (fun slice entry ->
      match entry with
      | Owned { shard = s; epoch } when s = shard ->
        orphan_entry t ~slice ~last:shard ~epoch ~since;
        incr n
      | In_transit { from_; epoch; since = hs; _ } when from_ = shard ->
        orphan_entry t ~slice ~last:shard ~epoch ~since:(min since hs);
        t.st.handoffs_orphaned <- t.st.handoffs_orphaned + 1;
        incr n
      | _ -> ())
    t.dir;
  !n

let heartbeat t ~shard ~incarnation =
  let d = t.fd in
  let now = Clock.now t.clock in
  (* A shard the router could not route to becomes a candidate to
     adopt or to receive a rebalanced slice. *)
  if not (shard_available t ~shard ~now) then force t;
  (* Unsuspected from now on, if it was not already. *)
  if now < t.due.hb_oldest then t.due.hb_oldest <- now;
  if incarnation > d.d_incarnation.(shard) then begin
    (* Restarted amnesiac: everything it owned died with the previous
       incarnation.  Orphan from the latest instant that incarnation
       may have served: its last heartbeat, when the suspicion timeout
       stops routing to a silent shard (and [grace] covers the
       heartbeat period), or else this announcement, since a shard
       nobody suspects is routed to until its restart is known. *)
    let since = if d.d_suspicion = infinity then now else d.d_last.(shard) in
    d.d_st.incarnation_orphans <- d.d_st.incarnation_orphans + orphan_mapped t ~shard ~since;
    d.d_incarnation.(shard) <- incarnation
  end;
  d.d_last.(shard) <- now;
  if d.d_flag.(shard) then begin
    d.d_flag.(shard) <- false;
    d.d_st.recoveries <- d.d_st.recoveries + 1;
    (* False suspicion healed: hand back any slice orphaned under it
       whose body survived at the directory epoch.  Nothing served the
       slice while orphaned (resolution refuses), so same-epoch
       re-ownership resumes service with every lease intact. *)
    Array.iteri
      (fun slice entry ->
        match entry with
        | Orphaned { last; epoch; _ }
          when last = shard
               && Option.is_some (Shard.serving t.shards.(shard) ~slice ~epoch ~now) ->
          set_entry t ~slice (Owned { shard; epoch });
          d.d_st.reowns <- d.d_st.reowns + 1
        | _ -> ())
      t.dir
  end

(* Suspicion sweep (from {!pump}): flag shards whose heartbeats went
   quiet and orphan their slices.  The orphan clock starts at
   [last + suspicion] — the instant routing stopped forwarding renews —
   so adoption after [grace] is safe provided
   [grace >= ttl + max in-flight delay] (callers enforce the stronger
   network-aware bound; docs/fault_model.md §8). *)
let detector_sweep t ~now =
  let d = t.fd in
  for shard = 0 to Array.length d.d_last - 1 do
    let last = d.d_last.(shard) in
    if (not d.d_flag.(shard)) && now -. last > d.d_suspicion then begin
      d.d_flag.(shard) <- true;
      d.d_st.suspicions <- d.d_st.suspicions + 1;
      ignore (orphan_mapped t ~shard ~since:(last +. d.d_suspicion))
    end
  done

(* {2 Routing} *)

type busy =
  | Shard_down of { shard : int }
  | In_handoff of { slice : int }
  | Redirected of { shard : int }

type sgrant = { sg_slice : int; sg_shard : int; sg_epoch : int; sg_grant : Lease.grant }

type gfence = Reply.gfence = { gf_slice : int; gf_fence : Lease.fence }

let fence_of_grant g = { gf_slice = g.sg_slice; gf_fence = g.sg_grant.Lease.g_fence }

type outcome =
  | Granted of sgrant
  | Queued of { slice : int; shard : int; ticket : int }
  | Shed of Admission.shed_reason
  | Busy of busy

let route_in_handoff = -1
let route_down = -2

(* Directory + detector view only — what a real router can know without
   reaching into a shard's memory.  The network path forwards on this
   and lets the shard itself refuse epoch-mismatched or missing bodies
   at delivery time. *)
let route t ~slice =
  let now = Clock.now t.clock in
  match t.dir.(slice) with
  | In_transit _ -> route_in_handoff
  | Orphaned _ -> route_down
  | Owned { shard; _ } -> if shard_available t ~shard ~now then shard else route_down

(* An in-process operation is served the way a forward is: routed on
   the directory and the detector, then answered by the body
   {!Shard.serving} finds at the directory's epoch. *)
let resolve t ~slice ~now =
  match t.dir.(slice) with
  | In_transit _ -> Error (In_handoff { slice })
  | Orphaned { last; _ } -> Error (Shard_down { shard = last })
  | Owned { shard; epoch } -> (
    if not (shard_available t ~shard ~now) then Error (Shard_down { shard })
    else
      match Shard.serving t.shards.(shard) ~slice ~epoch ~now with
      | Some sl -> Ok (shard, epoch, sl)
      | None -> Error (Shard_down { shard }))

let note_busy t route =
  if route = route_in_handoff then t.st.in_handoff_busy <- t.st.in_handoff_busy + 1
  else if route = route_down then begin
    t.st.shard_downs <- t.st.shard_downs + 1;
    bump t (fun c -> c.c_shard_down)
  end
  else begin
    t.st.redirects <- t.st.redirects + 1;
    bump t (fun c -> c.c_redirects)
  end

let count_busy t busy =
  note_busy t
    (match busy with
    | Shard_down _ -> route_down
    | In_handoff _ -> route_in_handoff
    | Redirected { shard } -> shard);
  busy

let acquire ?hint t ~session ~key =
  let now = Clock.now t.clock in
  let slice = slice_of_key t ~key in
  match t.dir.(slice) with
  | Owned { shard; _ } when (match hint with Some h -> h <> shard | None -> false) ->
    Busy (count_busy t (Redirected { shard }))
  | _ -> (
    match resolve t ~slice ~now with
    | Error busy -> Busy (count_busy t busy)
    | Ok (shard, epoch, sl) -> (
      match Service.acquire sl.Shard.sl_svc ~session with
      | Service.Granted grant ->
        Granted { sg_slice = slice; sg_shard = shard; sg_epoch = epoch; sg_grant = grant }
      | Service.Queued ticket -> Queued { slice; shard; ticket }
      | Service.Shed reason -> Shed reason))

let fenced_op t ~fence f =
  let now = Clock.now t.clock in
  match resolve t ~slice:fence.gf_slice ~now with
  | Error busy -> Error (`Busy (count_busy t busy))
  | Ok (_, _, sl) -> (
    match f sl.Shard.sl_svc ~fence:fence.gf_fence with
    | Ok v -> Ok v
    | Error `Fenced ->
      t.st.fenced_ops <- t.st.fenced_ops + 1;
      Error `Fenced)

let renew t ~fence = fenced_op t ~fence Service.renew
let use t ~fence = fenced_op t ~fence Service.use
let release t ~fence = fenced_op t ~fence Service.release

(* {2 Ownership handoff} *)

let begin_handoff t ~slice ~to_ =
  let now = Clock.now t.clock in
  match t.dir.(slice) with
  | Owned { shard = from_; epoch }
    when from_ <> to_
         && Shard.alive t.shards.(to_) ~now
         && Shard.serving t.shards.(from_) ~slice ~epoch ~now <> None ->
    set_entry t ~slice (In_transit { from_; to_; epoch; since = now });
    t.st.handoffs_started <- t.st.handoffs_started + 1;
    bump t (fun c -> c.c_handoffs);
    Ok ()
  | _ -> Error `Unavailable

(* Held leases over the nominal capacity of the resident slices; 1.0
   when the shard owns nothing, so rebalancing never targets it as cold.
   Inlined so the rebalance scan in every pump boxes no float. *)
let[@inline] shard_util t sh =
  let cap = List.length (Shard.slices sh) * t.cfg.slice_capacity in
  if cap = 0 then 1.0 else float_of_int (Shard.held sh) /. float_of_int cap

(* Least-loaded available shard, lowest id on ties; [except] excludes a
   shard (the handoff source).  Availability is the detector's view, and
   the shard must also actually be alive — the adopting shard acks the
   adoption in a real deployment, so a crashed shard that still looks
   available never receives slices. *)
let coldest_alive t ~now ?except () =
  let best = ref None in
  Array.iter
    (fun sh ->
      if
        Shard.alive sh ~now
        && shard_available t ~shard:(Shard.id sh) ~now
        && (match except with Some e -> Shard.id sh <> e | None -> true)
      then
        let u = shard_util t sh in
        match !best with
        | Some (bu, _) when bu <= u -> ()
        | _ -> best := Some (u, Shard.id sh))
    t.shards;
  !best

let rec transit_from t slice =
  slice < Array.length t.dir
  && match t.dir.(slice) with In_transit _ -> true | _ -> transit_from t (slice + 1)

let maybe_rebalance t ~now =
  if t.cfg.auto_rebalance && not (transit_from t 0) then begin
    (* The hottest live shard with resident slices, lowest id on ties. *)
    let hot = ref (-1) and hot_u = ref 0. in
    for id = 0 to Array.length t.shards - 1 do
      let sh = t.shards.(id) in
      if Shard.alive sh ~now && Shard.slices sh <> [] then begin
        let u = shard_util t sh in
        if !hot < 0 || !hot_u < u then begin
          hot := id;
          hot_u := u
        end
      end
    done;
    let hot_id = !hot in
    if hot_id >= 0 && !hot_u >= t.cfg.hot_util then
      match coldest_alive t ~now ~except:hot_id () with
      | Some (cu, cold_id) when cu <= t.cfg.cold_util -> (
        (* Move the hot shard's most-held slice: load follows the slice. *)
        let busiest =
          List.fold_left
            (fun acc (sl : Shard.slice) ->
              let h = Service.held sl.Shard.sl_svc in
              match acc with Some (bh, _) when bh >= h -> acc | _ -> Some (h, sl.Shard.sl_id))
            None
            (Shard.slices t.shards.(hot_id))
        in
        match busiest with
        | Some (_, slice) -> ignore (begin_handoff t ~slice ~to_:cold_id)
        | None -> ())
      | _ -> ()
  end

(* {2 The maintenance + grant pump} *)

type completion = { c_slice : int; c_shard : int; c_done : Service.completion }

(* A resident body is stale when the directory no longer maps its slice
   to this shard at its epoch. *)
let rec drop_stale t sh = function
  | [] -> ()
  | (sl : Shard.slice) :: rest ->
    let id = Shard.id sh in
    let stale =
      match t.dir.(sl.Shard.sl_id) with
      | Owned { shard; epoch } -> shard <> id || epoch <> sl.Shard.sl_epoch
      | In_transit { from_; epoch; _ } -> from_ <> id || epoch <> sl.Shard.sl_epoch
      | Orphaned { last; epoch; _ } ->
        (* An orphan may be a false suspicion: the surviving body is
           kept so recovery can re-own it.  Adoption bumps the epoch,
           which turns the body stale here the moment the slice is
           re-served. *)
        last <> id || epoch <> sl.Shard.sl_epoch
    in
    if stale then ignore (Shard.detach sh ~slice:sl.Shard.sl_id);
    drop_stale t sh rest

let validate_bodies t ~now =
  for id = 0 to Array.length t.shards - 1 do
    let sh = t.shards.(id) in
    if Shard.alive sh ~now then drop_stale t sh (Shard.slices sh)
  done

let step_transits t ~now =
  for slice = 0 to Array.length t.dir - 1 do
    match t.dir.(slice) with
    | In_transit { from_; to_; epoch; since } -> (
      let src = t.shards.(from_) and dst = t.shards.(to_) in
      match (Shard.status src ~now, Shard.status dst ~now) with
      | Shard.Crashed { since = c }, _ ->
        (* Source died mid-handoff, taking the body with it.  The
           slice is orphaned from the *earlier* of the two events so
           the grace clock never restarts in the slice's favour. *)
        orphan_entry t ~slice ~last:from_ ~epoch ~since:(min since c);
        t.st.handoffs_orphaned <- t.st.handoffs_orphaned + 1
      | _, Shard.Crashed _ -> (
        (* Destination died before taking ownership: the source keeps
           the body under a bumped epoch, fencing anything the dead
           destination might have observed about the transfer. *)
        match Shard.find_slice src ~slice with
        | sl ->
          sl.Shard.sl_epoch <- epoch + 1;
          set_entry t ~slice (Owned { shard = from_; epoch = epoch + 1 });
          t.st.handoffs_aborted <- t.st.handoffs_aborted + 1
        | exception Not_found ->
          orphan_entry t ~slice ~last:from_ ~epoch ~since;
          t.st.handoffs_orphaned <- t.st.handoffs_orphaned + 1)
      | Shard.Stalled { since = s; _ }, _ when now -. s >= t.cfg.grace ->
        orphan_entry t ~slice ~last:from_ ~epoch ~since:s;
        t.st.handoffs_orphaned <- t.st.handoffs_orphaned + 1
      | Shard.Alive, Shard.Alive when now > since -> (
        match Shard.detach src ~slice with
        | Some sl ->
          sl.Shard.sl_epoch <- epoch + 1;
          Shard.attach dst sl;
          set_entry t ~slice (Owned { shard = to_; epoch = epoch + 1 });
          t.st.handoffs_completed <- t.st.handoffs_completed + 1
        | None ->
          orphan_entry t ~slice ~last:from_ ~epoch ~since;
          t.st.handoffs_orphaned <- t.st.handoffs_orphaned + 1)
      | _ -> ())
    | _ -> ()
  done

let adopt_orphans t ~now =
  for slice = 0 to Array.length t.dir - 1 do
    match t.dir.(slice) with
    | Orphaned { last = _; epoch; since } when now -. since >= t.cfg.grace -> (
      match coldest_alive t ~now () with
      | None -> ()  (* nobody left: the slice stays dark, never unsafe *)
      | Some (_, adopter) ->
        (match t.tap with Some f -> f (Tap_absorb { slice; now }) | None -> ());
        Shard.attach t.shards.(adopter) (slice_body t ~slice ~epoch:(epoch + 1));
        set_entry t ~slice (Owned { shard = adopter; epoch = epoch + 1 });
        t.st.adoptions <- t.st.adoptions + 1;
        bump t (fun c -> c.c_adoptions))
    | _ -> ()
  done

let rec wrap_completions ~slice ~shard acc = function
  | [] -> acc
  | d :: rest ->
    wrap_completions ~slice ~shard ({ c_slice = slice; c_shard = shard; c_done = d } :: acc) rest

let lower (w : Service.wake) x = if x < w.Service.at then w.Service.at <- x

(* After a full pump, bring the guard's inputs up to date: the wake cell
   gets the earliest instant a phase could act again, and [t.due] the
   oldest heartbeat and grace clock.  Each input below is named after
   the phase it stands for; whatever else can give a phase work (a
   directory write, a shard status change, a heartbeat from an
   unavailable shard, a service operation) lowers the cell itself. *)
let rearm t ~now =
  let d = t.due and fd = t.fd in
  (* [detector_sweep] *)
  d.hb_oldest <- infinity;
  for shard = 0 to Array.length fd.d_last - 1 do
    if (not fd.d_flag.(shard)) && fd.d_last.(shard) < d.hb_oldest then
      d.hb_oldest <- fd.d_last.(shard)
  done;
  d.since_oldest <- infinity;
  (* A stall heals at [until]; its bodies are pumped and validated again. *)
  for id = 0 to Array.length t.shards - 1 do
    match Shard.status t.shards.(id) ~now with
    | Shard.Stalled { until; _ } -> lower t.wake until
    | Shard.Alive | Shard.Crashed _ -> ()
  done;
  for slice = 0 to Array.length t.dir - 1 do
    match t.dir.(slice) with
    | In_transit _ -> force t  (* [step_transits] *)
    | Orphaned { since; _ } ->
      (* [adopt_orphans]: an orphan past its grace is still here only
         because no shard could adopt it, and it waits for a status
         change or a heartbeat. *)
      if (not (now -. since >= t.cfg.grace)) && since < d.since_oldest then
        d.since_oldest <- since
    | Owned { shard; epoch } -> (
      match Shard.serving t.shards.(shard) ~slice ~epoch ~now with
      | Some sl -> lower t.wake (Service.next_due sl.Shard.sl_svc)  (* the slice pumps *)
      | None -> ())
  done

(* Nothing is due: no phase of [pump] would act.  The detector and grace
   deadlines are compared exactly as [detector_sweep] and
   [adopt_orphans] compare them, so rounding cannot delay them. *)
let idle t ~now =
  let d = t.due in
  now < t.wake.Service.at
  && (not (now -. d.hb_oldest > t.fd.d_suspicion))
  && not (now -. d.since_oldest >= t.cfg.grace)

let pump t =
  let now = Clock.now t.clock in
  t.st.pumps <- t.st.pumps + 1;
  if idle t ~now then []
  else begin
    t.st.full_pumps <- t.st.full_pumps + 1;
    t.wake.Service.at <- infinity;
    detector_sweep t ~now;
    step_transits t ~now;
    validate_bodies t ~now;
    adopt_orphans t ~now;
    maybe_rebalance t ~now;
    let completions = ref [] in
    for slice = 0 to Array.length t.dir - 1 do
      match t.dir.(slice) with
      | Owned { shard; epoch } -> (
        match Shard.serving t.shards.(shard) ~slice ~epoch ~now with
        | Some sl ->
          completions :=
            wrap_completions ~slice ~shard !completions (Service.pump sl.Shard.sl_svc)
        | None -> ())
      | _ -> ()
    done;
    rearm t ~now;
    List.rev !completions
  end
