module Obs = Renaming_obs.Obs
module Metrics = Renaming_obs.Metrics

exception Violation of { kind : string; message : string }

type counters = { c_violations : Metrics.counter; c_near_misses : Metrics.counter }

type t = {
  capacity : int;
  n_slots : int;
  holders : Lease.fence array;  (* [vacant] where the slot is free *)
  expiries : Float.Array.t;  (* valid while held *)
  mutable n_live : int;
  mutable n_events : int;
  mutable n_violations : int;
  mutable n_near_misses : int;
  mutable last_now : float;
  counters : counters option;
}

let vacant = { Lease.f_name = -1; f_session = -1; f_epoch = -1 }

let create ?obs ~capacity ~slots () =
  let counters =
    Option.map
      (fun o ->
        {
          c_violations = Obs.counter o "audit/violations";
          c_near_misses = Obs.counter o "audit/near_misses";
        })
      obs
  in
  {
    capacity;
    n_slots = slots;
    holders = Array.make slots vacant;
    expiries = Float.Array.make slots 0.;
    n_live = 0;
    n_events = 0;
    n_violations = 0;
    n_near_misses = 0;
    last_now = neg_infinity;
    counters;
  }

type event =
  | Granted of { fence : Lease.fence; expires : float }
  | Renewed of { fence : Lease.fence; expires : float; accepted : bool }
  | Validated of { fence : Lease.fence; accepted : bool }
  | Released of { fence : Lease.fence; accepted : bool }
  | Reclaimed of { fence : Lease.fence; expired_at : float }

let fail t ~kind fmt =
  Printf.ksprintf
    (fun message ->
      t.n_violations <- t.n_violations + 1;
      (match t.counters with Some c -> Metrics.incr c.c_violations | None -> ());
      raise (Violation { kind; message }))
    fmt

(* A near miss is the fence doing its job: a stale operation arrived and
   was correctly rejected.  Zero violations with zero near misses means
   fencing was never exercised — the counter makes that distinction
   observable instead of silent. *)
let near_miss t =
  t.n_near_misses <- t.n_near_misses + 1;
  match t.counters with Some c -> Metrics.incr c.c_near_misses | None -> ()

let pp_fence (f : Lease.fence) =
  Printf.sprintf "name=%d session=%d epoch=%d" f.Lease.f_name f.Lease.f_session
    f.Lease.f_epoch

let current t (fence : Lease.fence) =
  fence.Lease.f_name >= 0
  && fence.Lease.f_name < t.n_slots
  && t.holders.(fence.Lease.f_name) = fence

let free_slot t (fence : Lease.fence) =
  t.holders.(fence.Lease.f_name) <- vacant;
  t.n_live <- t.n_live - 1

let observe t ~now event =
  t.n_events <- t.n_events + 1;
  if now < t.last_now then
    fail t ~kind:"time-regression" "clock moved from %g back to %g" t.last_now now;
  t.last_now <- now;
  match event with
  | Granted { fence; expires } ->
    if fence.Lease.f_name < 0 || fence.Lease.f_name >= t.n_slots then
      fail t ~kind:"slot-range" "grant outside namespace: %s (slots=%d)" (pp_fence fence)
        t.n_slots;
    let held = t.holders.(fence.Lease.f_name) in
    if held != vacant then
      fail t ~kind:"double-grant" "slot granted while held: new=%s held-by=%s"
        (pp_fence fence) (pp_fence held);
    if t.n_live >= t.capacity then
      fail t ~kind:"capacity-exceeded" "grant %s would make %d live leases (capacity %d)"
        (pp_fence fence) (t.n_live + 1) t.capacity;
    t.holders.(fence.Lease.f_name) <- fence;
    Float.Array.set t.expiries fence.Lease.f_name expires;
    t.n_live <- t.n_live + 1
  | Renewed { fence; expires; accepted } ->
    if accepted then begin
      if not (current t fence) then
        fail t ~kind:"stale-accept" "renew accepted for dead fence %s" (pp_fence fence);
      let held_until = Float.Array.get t.expiries fence.Lease.f_name in
      if expires < held_until then
        fail t ~kind:"expiry-regression" "renew moved expiry of %s from %g back to %g"
          (pp_fence fence) held_until expires;
      Float.Array.set t.expiries fence.Lease.f_name expires
    end
    else if current t fence then
      fail t ~kind:"fenced-live" "renew fenced for live fence %s" (pp_fence fence)
    else near_miss t
  | Validated { fence; accepted } ->
    if accepted then begin
      if not (current t fence) then
        fail t ~kind:"stale-accept" "validate accepted for dead fence %s (crashed client wrote)"
          (pp_fence fence)
    end
    else if current t fence then
      fail t ~kind:"fenced-live" "validate fenced for live fence %s" (pp_fence fence)
    else near_miss t
  | Released { fence; accepted } ->
    if accepted then begin
      if not (current t fence) then
        fail t ~kind:"stale-accept" "release accepted for dead fence %s" (pp_fence fence);
      free_slot t fence
    end
    else if current t fence then
      fail t ~kind:"fenced-live" "release fenced for live fence %s" (pp_fence fence)
    else near_miss t
  | Reclaimed { fence; expired_at } ->
    if not (current t fence) then
      fail t ~kind:"stale-accept" "reclaim of a slot not held by %s" (pp_fence fence);
    let held_until = Float.Array.get t.expiries fence.Lease.f_name in
    if now < held_until then
      fail t ~kind:"early-reclaim" "reclaim of %s at %g before expiry %g" (pp_fence fence)
        now held_until;
    if expired_at > now then
      fail t ~kind:"early-reclaim" "reclaim of %s reports future expiry %g at %g"
        (pp_fence fence) expired_at now;
    free_slot t fence

let live t = t.n_live
let violations t = t.n_violations
let near_misses t = t.n_near_misses
