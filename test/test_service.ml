(* Tests for the lease-based renaming service: the deterministic heap,
   the lease table (fencing, expiry, reclamation), the admission queue,
   session minting, the refinement spec on the event stream, the service façade
   under a hand-driven clock, and determinism of the churn simulations. *)

module Heap = Renaming_service.Heap
module Lease = Renaming_service.Lease
module Admission = Renaming_service.Admission
module Minter = Renaming_service.Minter
module Audit = Renaming_service.Audit
module Service = Renaming_service.Service
module Router = Renaming_service.Router
module Shard = Renaming_service.Shard
module Transport = Renaming_service.Transport
module Dedup = Renaming_service.Dedup
module Reply = Renaming_service.Reply
module Net_churn = Renaming_service.Net_churn
module Lease_adapter = Renaming_refine.Lease_adapter
module Check = Renaming_refine.Check
module Spec = Renaming_refine.Spec
module Clock = Renaming_clock.Clock
module Xoshiro = Renaming_rng.Xoshiro
module Obs = Renaming_obs.Obs
module Metrics = Renaming_obs.Metrics

let check = Alcotest.check

let manual_clock () =
  let t = ref 0.0 in
  (t, Clock.of_fn ~label:"test-manual" (fun () -> !t))

(* ------------------------------------------------------------------ *)
(* Heap: deterministic take order, ties broken by push sequence.     *)

(* Take every entry, smallest [(time, seq)] first, as (time, aux, value). *)
let heap_drain h =
  let out = ref [] in
  while not (Heap.is_empty h) do
    let time = Heap.top_time h and aux = Heap.top_aux h in
    out := (time, aux, Heap.take h) :: !out
  done;
  List.rev !out

let test_heap_deterministic_order () =
  let h = Heap.create () in
  List.iteri (fun aux (time, v) -> Heap.push h ~time ~aux v)
    [ (3.0, "late"); (1.0, "first"); (2.0, "mid"); (1.0, "second") ];
  check Alcotest.int "size" 4 (Heap.size h);
  check (Alcotest.float 1e-9) "peek" 1.0 (Heap.top_time h);
  check Alcotest.int "peek aux" 1 (Heap.top_aux h);
  let drained = heap_drain h in
  check Alcotest.(list string) "FIFO within equal times"
    [ "first"; "second"; "mid"; "late" ] (List.map (fun (_, _, v) -> v) drained);
  check Alcotest.(list int) "aux travels with its entry" [ 1; 3; 2; 0 ]
    (List.map (fun (_, aux, _) -> aux) drained);
  check Alcotest.bool "empty after drain" true (Heap.is_empty h);
  check (Alcotest.float 0.) "empty top" infinity (Heap.top_time h);
  check Alcotest.int "pushed counts every push" 4 (Heap.pushed h);
  match Heap.take h with
  | _ -> Alcotest.fail "take on an empty heap must raise"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Lease table: capacity, fencing, release epoch bump.                *)

let test_lease_capacity_and_release () =
  let rng = Xoshiro.create 7L in
  let lease = Lease.create (Lease.make_config ~capacity:2 ~ttl:10.0 ()) in
  let grant session =
    match Lease.acquire lease ~session ~now:0.0 ~rng with
    | Ok g -> g.Lease.g_fence
    | Error `At_capacity -> Alcotest.fail "unexpected At_capacity"
  in
  let f1 = grant 1 in
  let f2 = grant 2 in
  check Alcotest.int "held" 2 (Lease.held lease);
  check Alcotest.bool "distinct names" true (f1.Lease.f_name <> f2.Lease.f_name);
  (match Lease.acquire lease ~session:3 ~now:0.0 ~rng with
  | Error `At_capacity -> ()
  | Ok _ -> Alcotest.fail "third grant must hit capacity");
  (match Lease.release lease ~fence:f1 ~now:4.0 with
  | Ok dur -> check (Alcotest.float 1e-9) "held duration" 4.0 dur
  | Error `Fenced -> Alcotest.fail "live release fenced");
  (* The released fence is dead immediately: the epoch bumped. *)
  (match Lease.validate lease ~fence:f1 with
  | Error `Fenced -> ()
  | Ok () -> Alcotest.fail "released fence validated");
  (* Capacity is available again. *)
  let f3 = grant 3 in
  check Alcotest.bool "slot in range" true
    (f3.Lease.f_name >= 0 && f3.Lease.f_name < Lease.slots lease);
  (* A fence is checked against the slot's holder: the same name and
     epoch under another session is refused. *)
  check Alcotest.bool "holder tracked" true
    (Lease.validate lease ~fence:f3 = Ok ()
    && Lease.validate lease ~fence:{ f3 with Lease.f_session = 4 } = Error `Fenced)

let test_lease_reclaim_skips_renewed () =
  let rng = Xoshiro.create 8L in
  let lease = Lease.create (Lease.make_config ~capacity:2 ~ttl:5.0 ()) in
  let fence s =
    match Lease.acquire lease ~session:s ~now:0.0 ~rng with
    | Ok g -> g.Lease.g_fence
    | Error `At_capacity -> Alcotest.fail "capacity"
  in
  let live = fence 1 in
  let dead = fence 2 in
  (* Renew the live one at t=4 (new expiry 9); leave the other to rot. *)
  (match Lease.renew lease ~fence:live ~now:4.0 with
  | Ok e -> check (Alcotest.float 1e-9) "renewed expiry" 9.0 e
  | Error `Fenced -> Alcotest.fail "live renew fenced");
  let reclaimed = Lease.reclaim_expired lease ~now:6.0 in
  check Alcotest.int "one lease reclaimed" 1 (List.length reclaimed);
  let r = List.hd reclaimed in
  check Alcotest.int "the unrenewed one" dead.Lease.f_session
    r.Lease.r_fence.Lease.f_session;
  check (Alcotest.float 1e-9) "lateness = now - expiry" 1.0 r.Lease.r_lateness;
  (match Lease.validate lease ~fence:live with
  | Ok () -> ()
  | Error `Fenced -> Alcotest.fail "renewed lease was revoked");
  (match Lease.validate lease ~fence:dead with
  | Error `Fenced -> ()
  | Ok () -> Alcotest.fail "reclaimed fence still validates")

(* ------------------------------------------------------------------ *)
(* Admission: shedding, queue bound, deadline expiry.                 *)

let test_admission_shed_and_expire () =
  let adm =
    Admission.create
      (Admission.make_config ~queue_limit:2 ~request_timeout:1.0 ~high_water:0.9 ())
  in
  (match Admission.offer adm ~session:1 ~now:0.0 ~utilization:0.95 with
  | Error Admission.High_water -> ()
  | _ -> Alcotest.fail "high utilization must shed");
  let t1 =
    match Admission.offer adm ~session:1 ~now:0.0 ~utilization:0.1 with
    | Ok t -> t
    | Error _ -> Alcotest.fail "offer 1"
  in
  (match Admission.offer adm ~session:2 ~now:0.2 ~utilization:0.1 with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "offer 2");
  (match Admission.offer adm ~session:3 ~now:0.3 ~utilization:0.1 with
  | Error Admission.Queue_full -> ()
  | _ -> Alcotest.fail "bounded queue must refuse the third");
  check Alcotest.int "depth" 2 (Admission.depth adm);
  (* Take the head before it times out. *)
  (match Admission.take adm ~now:0.5 with
  | Some (ticket, session, waited) ->
    check Alcotest.int "head ticket" t1 ticket;
    check Alcotest.int "head session" 1 session;
    check (Alcotest.float 1e-9) "waited" 0.5 waited
  | None -> Alcotest.fail "take");
  (* The second request (queued at 0.2, timeout 1.0) expires past 1.2. *)
  let expired = Admission.expire adm ~now:2.0 in
  check Alcotest.int "one expiry" 1 (List.length expired);
  let x = List.hd expired in
  check Alcotest.int "expired session" 2 x.Admission.x_session;
  check (Alcotest.float 1e-9) "expired wait" 1.8 x.Admission.x_waited;
  check
    (Alcotest.option (Alcotest.triple Alcotest.int Alcotest.int (Alcotest.float 1e-9)))
    "queue drained" None
    (Admission.take adm ~now:2.0)

(* ------------------------------------------------------------------ *)
(* Minter: global uniqueness across dispenser blocks.                 *)

let test_minter_unique_across_blocks () =
  let rng = Xoshiro.create 9L in
  let m = Minter.create ~block_capacity:8 ~rng () in
  let seen = Hashtbl.create 128 in
  for _ = 1 to 100 do
    let id = Minter.mint m in
    check Alcotest.bool "session id fresh" false (Hashtbl.mem seen id);
    Hashtbl.add seen id ()
  done;
  (* A block hands out at most 8 ids, so 100 fresh ones span chained
     blocks. *)
  check Alcotest.int "minted" 100 (Hashtbl.length seen)

(* ------------------------------------------------------------------ *)
(* The refinement spec on the service's event stream: each lease-path *)
(* rule fires on a contradicting stream fed through the router tap.   *)

let expect_violation ~kind f =
  match f () with
  | () -> Alcotest.fail (Printf.sprintf "expected %s violation" kind)
  | exception Audit.Violation v ->
    check Alcotest.string "violation kind" kind v.kind

let fence ~name ~session ~epoch =
  { Lease.f_name = name; f_session = session; f_epoch = epoch }

(* Two slices of 8 names, each a lease table of capacity 4. *)
let slice_width = 8

let spec_tap () =
  let adapter = Lease_adapter.create ~namespace:(2 * slice_width) () in
  let tap = Lease_adapter.router_tap adapter ~slice_width in
  (adapter, fun ?(slice = 0) ~now ev -> tap (Router.Tap_audit { slice; now; ev }))

let granted ?(epoch = 1) ~name ~session expires =
  Audit.Granted { fence = fence ~name ~session ~epoch; expires; capacity = 4 }

let test_audit_catches_double_grant () =
  let _, feed = spec_tap () in
  feed ~now:0.0 (granted ~name:0 ~session:1 10.0);
  expect_violation ~kind:"refine:name-held" (fun () ->
      feed ~now:1.0 (granted ~name:0 ~session:2 ~epoch:2 11.0))

let test_audit_catches_stale_accept () =
  let _, feed = spec_tap () in
  let f = fence ~name:3 ~session:1 ~epoch:1 in
  feed ~now:0.0 (granted ~name:3 ~session:1 2.0);
  feed ~now:5.0 (Audit.Reclaimed { fence = f });
  expect_violation ~kind:"refine:claim-unbacked" (fun () ->
      feed ~now:6.0 (Audit.Validated { fence = f; accepted = true }))

let test_audit_catches_early_reclaim () =
  let _, feed = spec_tap () in
  feed ~now:0.0 (granted ~name:2 ~session:1 10.0);
  expect_violation ~kind:"refine:early-reclaim" (fun () ->
      feed ~now:5.0 (Audit.Reclaimed { fence = fence ~name:2 ~session:1 ~epoch:1 }));
  (* At its expiry the same reclaim is enabled. *)
  feed ~now:10.0 (Audit.Reclaimed { fence = fence ~name:2 ~session:1 ~epoch:1 })

let test_audit_catches_time_regression () =
  let _, feed = spec_tap () in
  feed ~now:5.0 (granted ~name:0 ~session:1 15.0);
  expect_violation ~kind:"refine:time-regression" (fun () ->
      feed ~now:4.0 (granted ~name:1 ~session:2 14.0))

let test_spec_catches_global_double_grant () =
  let _, feed = spec_tap () in
  (* The same slice-local name in two slices is two global names... *)
  feed ~slice:0 ~now:0.0 (granted ~name:5 ~session:1 10.0);
  feed ~slice:1 ~now:0.0 (granted ~name:5 ~session:2 10.0);
  (* ...but two bodies of one slice (a slice served twice) granting the
     same name is a global double grant. *)
  expect_violation ~kind:"refine:name-held" (fun () ->
      feed ~slice:1 ~now:1.0 (granted ~name:5 ~session:3 11.0))

let test_spec_catches_early_absorb () =
  let adapter, feed = spec_tap () in
  let tap = Lease_adapter.router_tap adapter ~slice_width in
  feed ~slice:1 ~now:0.0 (granted ~name:2 ~session:1 10.0);
  feed ~slice:1 ~now:1.0 (granted ~name:6 ~session:2 4.0);
  expect_violation ~kind:"refine:early-absorb" (fun () ->
      tap (Router.Tap_absorb { slice = 1; now = 5.0 }));
  tap (Router.Tap_absorb { slice = 1; now = 10.0 });
  check Alcotest.int "the absorb freed the slice" 0
    (Spec.held (Check.spec (Lease_adapter.check adapter)))

let test_spec_catches_capacity_and_expiry_regression () =
  let _, feed = spec_tap () in
  for name = 0 to 3 do
    feed ~now:0.0 (granted ~name ~session:name 10.0)
  done;
  expect_violation ~kind:"refine:over-capacity" (fun () ->
      feed ~now:0.0 (granted ~name:4 ~session:4 10.0));
  (* The other slice has room of its own. *)
  feed ~slice:1 ~now:0.0 (granted ~name:4 ~session:4 10.0);
  expect_violation ~kind:"refine:expiry-regression" (fun () ->
      feed ~now:1.0
        (Audit.Renewed { fence = fence ~name:0 ~session:0 ~epoch:1; expires = 9.0; accepted = true }))

(* ------------------------------------------------------------------ *)
(* Service façade under a hand-driven clock.                          *)

let service ?meters ?tap ?(capacity = 2) ?(ttl = 10.0) ?(queue_limit = 4)
    ?(request_timeout = 1.5) ?(high_water = 1.5) () =
  let time, clock = manual_clock () in
  let cfg =
    Service.make_config
      ~lease:(Lease.make_config ~capacity ~ttl ())
      ~admission:
        (Admission.make_config ~queue_limit ~request_timeout ~high_water ())
      ()
  in
  (time, Service.create ?meters ?tap ~clock ~rng:(Xoshiro.create 21L) cfg)

(* The spec on one service's stream, as the service's one slice; sized
   for a table of [capacity]. *)
let service_spec ?obs ~capacity () =
  let slots = Lease.slots (Lease.create (Lease.make_config ~capacity ())) in
  let adapter = Lease_adapter.create ?obs ~namespace:slots () in
  let tap = Lease_adapter.router_tap adapter ~slice_width:slots in
  (Lease_adapter.check adapter, fun ~now ev -> tap (Router.Tap_audit { slice = 0; now; ev }))

let test_service_queue_then_reclaim_grant () =
  let spec, tap = service_spec ~capacity:2 () in
  let meters = Service.meters () in
  let time, svc = service ~meters ~tap ~ttl:5.0 () in
  let s = Service.stats meters in
  let g session =
    match Service.acquire svc ~session with
    | Service.Granted g -> g.Lease.g_fence
    | _ -> Alcotest.fail "expected immediate grant"
  in
  let _f1 = g 1 in
  let _f2 = g 2 in
  let ticket =
    match Service.acquire svc ~session:3 with
    | Service.Queued t -> t
    | _ -> Alcotest.fail "expected queueing at capacity"
  in
  check Alcotest.int "one request queued" 1 s.Service.queued;
  check Alcotest.int "nothing to grant yet" 0 (List.length (Service.pump svc));
  (* Neither holder releases; their leases expire at t=5 and the queued
     request (timeout 1.5 — already overdue, but grants beat the check
     only if capacity frees first; here it timed out long before). *)
  time := 1.0;
  (match Service.pump svc with
  | [ Service.Timed_out _ ] -> Alcotest.fail "not yet overdue"
  | [] -> ()
  | _ -> Alcotest.fail "unexpected completions");
  time := 6.0;
  (match Service.pump svc with
  | [ Service.Timed_out { ticket = t; session; _ } ] ->
    check Alcotest.int "timed-out ticket" ticket t;
    check Alcotest.int "timed-out session" 3 session
  | _ -> Alcotest.fail "expected a request timeout");
  (* The two original leases were reclaimed by the same pump. *)
  check Alcotest.int "all reclaimed" 0 (Service.held svc);
  check Alcotest.int "reclaims" 2 s.Service.reclaims;
  check Alcotest.int "expired requests" 1 s.Service.expired_requests;
  check Alcotest.int "the spec agrees" 0 (Spec.held (Check.spec spec))

let test_service_queue_drain_done () =
  let time, svc = service ~ttl:5.0 ~request_timeout:50.0 () in
  (match Service.acquire svc ~session:1 with
  | Service.Granted _ -> ()
  | _ -> Alcotest.fail "grant 1");
  (match Service.acquire svc ~session:2 with
  | Service.Granted _ -> ()
  | _ -> Alcotest.fail "grant 2");
  let ticket =
    match Service.acquire svc ~session:3 with
    | Service.Queued t -> t
    | _ -> Alcotest.fail "queue 3"
  in
  time := 6.0;
  (match Service.pump svc with
  | [ Service.Done { ticket = t; session; grant; waited } ] ->
    check Alcotest.int "done ticket" ticket t;
    check Alcotest.int "done session" 3 session;
    check (Alcotest.float 1e-9) "waited" 6.0 waited;
    check Alcotest.int "grant fence session" 3 grant.Lease.g_fence.Lease.f_session
  | _ -> Alcotest.fail "expected queued request granted after reclaim");
  check Alcotest.int "one live lease" 1 (Service.held svc)

let test_service_high_water_shed () =
  let meters = Service.meters () in
  let _, svc = service ~meters ~capacity:4 ~high_water:0.5 () in
  (match Service.acquire svc ~session:1 with
  | Service.Granted _ -> ()
  | _ -> Alcotest.fail "grant 1");
  (match Service.acquire svc ~session:2 with
  | Service.Granted _ -> ()
  | _ -> Alcotest.fail "grant 2");
  (* utilization = 0.5 = high water: shed, do not queue. *)
  (match Service.acquire svc ~session:3 with
  | Service.Shed Admission.High_water -> ()
  | _ -> Alcotest.fail "expected high-water shed");
  let s = Service.stats meters in
  check Alcotest.int "shed counted" 1 s.Service.sheds_high_water;
  check Alcotest.int "nothing queued" 0 s.Service.queued

let test_service_stale_fence_rejected () =
  let meters = Service.meters () in
  let time, svc = service ~meters ~ttl:2.0 () in
  let f =
    match Service.acquire svc ~session:1 with
    | Service.Granted g -> g.Lease.g_fence
    | _ -> Alcotest.fail "grant"
  in
  time := 10.0;
  ignore (Service.pump svc);
  check Alcotest.int "reclaimed" 0 (Service.held svc);
  (match Service.use svc ~fence:f with
  | Error `Fenced -> ()
  | Ok () -> Alcotest.fail "stale use accepted");
  (match Service.renew svc ~fence:f with
  | Error `Fenced -> ()
  | Ok _ -> Alcotest.fail "stale renew accepted");
  (match Service.release svc ~fence:f with
  | Error `Fenced -> ()
  | Ok _ -> Alcotest.fail "stale release accepted");
  check Alcotest.int "three fenced ops" 3 (Service.stats meters).Service.fenced;
  (* The slot is reusable and the new fence does not revive the old. *)
  (match Service.acquire svc ~session:2 with
  | Service.Granted _ -> ()
  | _ -> Alcotest.fail "regrant after reclaim");
  (match Service.use svc ~fence:f with
  | Error `Fenced -> ()
  | Ok () -> Alcotest.fail "old fence revived by regrant")

(* ------------------------------------------------------------------ *)
(* Churn against one Service (a one-shard router): deterministic,     *)
(* safe, and it actually reclaims.                                    *)

let churn_config () =
  Net_churn.make_config ~faults:Transport.perfect ~clients:24 ~sessions_target:400
    ~renew_every:2.0 ~crash_rate:0.4 ~stale_wakeup:0.5 ~mean_hold:4.0 ~mean_think:2.0
    ~client_restart_delay:5.0 ~max_attempts:6
    ~router:
      (Router.make_config ~shards:1 ~slices:1 ~slice_capacity:12 ~ttl:6.0 ~queue_limit:16
         ~request_timeout:3.0 ~high_water:0.85 ~auto_rebalance:false ())
    ()

let test_churn_safety_and_reclaim () =
  let s, refine = Lease_adapter.run (churn_config ()) ~seed:42L in
  check Alcotest.(option (pair string string)) "no violation" None s.Net_churn.violation;
  check Alcotest.bool "the spec heard the run" true (Check.events refine > 0);
  check Alcotest.bool "no livelock" false s.Net_churn.livelocked;
  check Alcotest.bool "sessions ran" true (s.Net_churn.sessions >= 400);
  check Alcotest.bool "crashes happened" true (s.Net_churn.client_crashes > 0);
  check Alcotest.bool "names reclaimed" true (s.Net_churn.service.Service.reclaims > 0);
  check Alcotest.int "every stale op fenced" s.Net_churn.stale_ops s.Net_churn.stale_rejected;
  check Alcotest.bool "stale wakeups exercised" true (s.Net_churn.stale_ops > 0);
  check Alcotest.int "no live-path fencing" 0 s.Net_churn.unexpected_fenced;
  check Alcotest.bool "capacity respected" true (s.Net_churn.peak_held <= 12)

let test_churn_deterministic () =
  let a = Net_churn.run (churn_config ()) ~seed:11L in
  let b = Net_churn.run (churn_config ()) ~seed:11L in
  check Alcotest.int "sessions" a.Net_churn.sessions b.Net_churn.sessions;
  check Alcotest.int "crashes" a.Net_churn.client_crashes b.Net_churn.client_crashes;
  check Alcotest.int "restarts" a.Net_churn.client_restarts b.Net_churn.client_restarts;
  check Alcotest.int "stale ops" a.Net_churn.stale_ops b.Net_churn.stale_ops;
  check Alcotest.int "retries" a.Net_churn.retries b.Net_churn.retries;
  check Alcotest.int "events" a.Net_churn.events b.Net_churn.events;
  check (Alcotest.float 1e-9) "sim time" a.Net_churn.sim_time b.Net_churn.sim_time;
  check Alcotest.int "grants" a.Net_churn.service.Service.grants
    b.Net_churn.service.Service.grants;
  check Alcotest.int "reclaims" a.Net_churn.service.Service.reclaims
    b.Net_churn.service.Service.reclaims;
  check Alcotest.int "sheds"
    (a.Net_churn.service.Service.sheds_high_water
    + a.Net_churn.service.Service.sheds_queue_full)
    (b.Net_churn.service.Service.sheds_high_water
    + b.Net_churn.service.Service.sheds_queue_full)

(* ------------------------------------------------------------------ *)
(* QCheck properties (the ISSUE's S3 trio).                           *)

let qcheck_expiry_monotone =
  QCheck.Test.make ~count:60
    ~name:"lease expiry is monotone under renewals on an advancing clock"
    (QCheck.pair QCheck.small_int
       (QCheck.list_of_size (QCheck.Gen.int_range 1 30) (QCheck.int_range 0 400)))
    (fun (seed, steps) ->
      QCheck.assume (steps <> []);
      let rng = Xoshiro.create (Int64.of_int (succ seed)) in
      let ttl = 5.0 in
      let lease = Lease.create (Lease.make_config ~capacity:4 ~ttl ()) in
      match Lease.acquire lease ~session:1 ~now:0.0 ~rng with
      | Error `At_capacity -> false
      | Ok g ->
        let fence = g.Lease.g_fence in
        let now = ref 0.0 and last = ref ttl in
        List.for_all
          (fun centis ->
            now := !now +. (float_of_int centis /. 100.);
            (* Never reclaimed, so the lenient renew must accept even
               past expiry, and each new expiry is >= the previous. *)
            match Lease.renew lease ~fence ~now:!now with
            | Error `Fenced -> false
            | Ok expires ->
              let ok = expires >= !last && expires = !now +. ttl in
              last := expires;
              ok)
          steps)

let qcheck_reclaim_never_revokes_renewed =
  QCheck.Test.make ~count:60
    ~name:"reclamation never revokes a lease that keeps renewing"
    (QCheck.pair QCheck.small_int
       (QCheck.list_of_size (QCheck.Gen.int_range 1 25) (QCheck.int_range 1 99)))
    (fun (seed, jitters) ->
      QCheck.assume (jitters <> []);
      let rng = Xoshiro.create (Int64.of_int (seed + 101)) in
      let ttl = 2.0 in
      let lease = Lease.create (Lease.make_config ~capacity:6 ~ttl ()) in
      (* A victim that never renews keeps the reclaimer genuinely busy. *)
      (match Lease.acquire lease ~session:99 ~now:0.0 ~rng with
      | Ok _ -> ()
      | Error `At_capacity -> assert false);
      match Lease.acquire lease ~session:1 ~now:0.0 ~rng with
      | Error `At_capacity -> false
      | Ok g ->
        let fence = g.Lease.g_fence in
        let now = ref 0.0 in
        List.for_all
          (fun pct ->
            (* Advance by strictly less than ttl, renew first, then let
               the reclaimer sweep at the same instant. *)
            now := !now +. (ttl *. float_of_int pct /. 100.);
            match Lease.renew lease ~fence ~now:!now with
            | Error `Fenced -> false
            | Ok _ ->
              let reclaimed = Lease.reclaim_expired lease ~now:!now in
              List.for_all
                (fun r -> r.Lease.r_fence.Lease.f_session <> 1)
                reclaimed
              && (match Lease.validate lease ~fence with
                 | Ok () -> true
                 | Error `Fenced -> false))
          jitters
        && Lease.validate lease ~fence = Ok ())

let qcheck_stale_fence_never_writes =
  QCheck.Test.make ~count:60
    ~name:"a fenced stale client can never write after reclamation"
    QCheck.(pair small_int (int_range 0 500))
    (fun (seed, extra_centis) ->
      let rng = Xoshiro.create (Int64.of_int (seed + 211)) in
      let ttl = 1.0 in
      let lease = Lease.create (Lease.make_config ~capacity:4 ~ttl ()) in
      match Lease.acquire lease ~session:1 ~now:0.0 ~rng with
      | Error `At_capacity -> false
      | Ok g ->
        let fence = g.Lease.g_fence in
        let now = ttl +. (float_of_int extra_centis /. 100.) in
        let reclaimed = Lease.reclaim_expired lease ~now in
        List.exists (fun r -> r.Lease.r_fence = fence) reclaimed
        && Lease.held lease = 0
        (* Every path a stale client could write through is fenced. *)
        && (match Lease.renew lease ~fence ~now with
           | Error `Fenced -> true
           | Ok _ -> false)
        && (match Lease.validate lease ~fence with
           | Error `Fenced -> true
           | Ok () -> false)
        && (match Lease.release lease ~fence ~now with
           | Error `Fenced -> true
           | Ok _ -> false)
        (* ... and stays fenced even after the slot is regranted. *)
        && (match Lease.acquire lease ~session:2 ~now ~rng with
           | Error `At_capacity -> false
           | Ok _ -> (
             match Lease.validate lease ~fence with
             | Error `Fenced -> true
             | Ok () -> false)))

(* ------------------------------------------------------------------ *)
(* Heap compaction: dead entries dropped, survivors keep their keys.   *)

let test_heap_compact_preserves_order () =
  let h = Heap.create () in
  List.iter (fun (t, v) -> Heap.push h ~time:t ~aux:(10 * v) v)
    [ (3.0, 0); (1.0, 1); (2.0, 2); (1.0, 3); (2.0, 4); (5.0, 5) ];
  (* Keep the odd values; note 1 and 3 tie on time and must stay in
     insertion order after compaction. *)
  Heap.compact h ~live:(fun ~time:_ ~aux v -> v mod 2 = 1 && aux = 10 * v);
  check Alcotest.int "compacted size" 3 (Heap.size h);
  check Alcotest.(list int) "take order of survivors" [ 1; 3; 5 ]
    (List.map (fun (_, _, v) -> v) (heap_drain h))

let qcheck_compact_preserves_pop_order =
  QCheck.Test.make ~count:300 ~name:"heap compaction preserves pop order"
    QCheck.(small_list (pair (int_range 0 12) bool))
    (fun entries ->
      (* Two heaps with identical push sequences; one is compacted to
         its live subset.  Draining both must agree on the live entries,
         ties and all — compaction may not disturb (time, seq) keys. *)
      let reference = Heap.create () in
      let compacted = Heap.create () in
      List.iteri
        (fun i (t, alive) ->
          let time = float_of_int t in
          Heap.push reference ~time ~aux:i alive;
          Heap.push compacted ~time ~aux:i alive)
        entries;
      Heap.compact compacted ~live:(fun ~time:_ ~aux:_ alive -> alive);
      let live_reference = List.filter (fun (_, _, alive) -> alive) (heap_drain reference) in
      heap_drain compacted = live_reference)

(* The heap against a reference list kept sorted by (time, push seq),
   over random runs of pushes, takes and compactions. *)
type heap_op = Push of int | Take | Compact of int

let qcheck_heap_differential =
  let op =
    QCheck.Gen.(
      frequency
        [
          (6, map (fun t -> Push t) (int_range 0 9));
          (4, return Take);
          (* [Compact 1] drops every entry and shrinks the columns. *)
          (1, map (fun m -> Compact m) (int_range 1 4));
        ])
  in
  let print = function
    | Push t -> Printf.sprintf "push %d" t
    | Take -> "take"
    | Compact m -> Printf.sprintf "compact %d" m
  in
  QCheck.Test.make ~count:500 ~name:"heap: takes in (time, push seq) order, like a sorted list"
    (QCheck.make ~print:(QCheck.Print.list print) QCheck.Gen.(list_size (int_range 0 120) op))
    (fun ops ->
      let h = Heap.create () in
      (* (time, seq, value), sorted; value = seq, aux = 7 * seq. *)
      let model = ref [] and seq = ref 0 in
      let key (t, s, _) = (t, s) in
      List.iter
        (fun op ->
          match op with
          | Push t ->
            let time = float_of_int t /. 4. in
            Heap.push h ~time ~aux:(7 * !seq) !seq;
            model := List.merge (fun a b -> compare (key a) (key b)) !model [ (time, !seq, !seq) ];
            incr seq
          | Take -> (
            match !model with
            | [] ->
              if not (Heap.is_empty h) then QCheck.Test.fail_report "model empty, heap not"
            | (time, s, v) :: rest ->
              model := rest;
              if Heap.top_time h <> time then QCheck.Test.fail_report "top_time";
              if Heap.top_aux h <> 7 * s then QCheck.Test.fail_report "top_aux";
              if Heap.take h <> v then QCheck.Test.fail_report "take order")
          | Compact m ->
            let live ~time:_ ~aux v = aux = 7 * v && v mod m <> 0 in
            Heap.compact h ~live;
            model := List.filter (fun (_, _, v) -> v mod m <> 0) !model)
        ops;
      Heap.size h = List.length !model
      && Heap.pushed h = !seq
      && heap_drain h = List.map (fun (t, s, v) -> (t, 7 * s, v)) !model)

let test_lease_heap_compaction () =
  let rng = Xoshiro.create 11L in
  let lease = Lease.create (Lease.make_config ~capacity:4 ~ttl:10.0 ()) in
  let fence =
    match Lease.acquire lease ~session:1 ~now:0.0 ~rng with
    | Ok g -> g.Lease.g_fence
    | Error `At_capacity -> Alcotest.fail "capacity"
  in
  (* Every renew lazily abandons its previous heap entry; long-lived
     renewing leases are exactly the workload that bloats the heap. *)
  for i = 1 to 120 do
    match Lease.renew lease ~fence ~now:(0.05 *. float_of_int i) with
    | Ok _ -> ()
    | Error `Fenced -> Alcotest.fail "live renew fenced"
  done;
  (* 121 entries were pushed, so a heap this small was compacted. *)
  check Alcotest.bool "heap bounded"
    true
    (Lease.pending_expiries lease <= 33);
  (* Compaction must not have disturbed the lease itself. *)
  (match Lease.validate lease ~fence with
  | Ok () -> ()
  | Error `Fenced -> Alcotest.fail "compaction killed a live lease");
  check Alcotest.int "nothing reclaimable before expiry" 0
    (List.length (Lease.reclaim_expired lease ~now:10.0));
  let reclaimed = Lease.reclaim_expired lease ~now:16.1 in
  check Alcotest.int "reclaimed after expiry" 1 (List.length reclaimed)

(* ------------------------------------------------------------------ *)
(* The spec's counters surface through the metrics registry.         *)

let test_audit_metrics_counters () =
  let obs = Obs.create () in
  let spec, tap = service_spec ~obs ~capacity:4 () in
  let _t, clock = manual_clock () in
  let rng = Xoshiro.create 13L in
  let svc =
    Service.create ~meters:(Service.meters ~obs ()) ~tap ~clock ~rng
      {
        Service.lease = Lease.make_config ~capacity:4 ~ttl:10.0 ();
        admission = Admission.make_config ();
      }
  in
  let fence =
    match Service.acquire svc ~session:1 with
    | Service.Granted g -> g.Lease.g_fence
    | _ -> Alcotest.fail "grant"
  in
  (match Service.release svc ~fence with
  | Ok _ -> ()
  | Error `Fenced -> Alcotest.fail "live release fenced");
  (* The replayed fence is stale: rejected, and a stutter to the spec. *)
  (match Service.release svc ~fence with
  | Error `Fenced -> ()
  | Ok _ -> Alcotest.fail "stale release accepted");
  let counter name =
    Option.value ~default:(-1) (Metrics.find_counter (Obs.metrics obs) ("refine/" ^ name))
  in
  check Alcotest.int "grant (invoke + lease), release, stale release" 4 (Check.events spec);
  check Alcotest.int "refine/events counter mirrors the check" (Check.events spec)
    (counter "events");
  check Alcotest.int "the stale release is a stutter" 1 (counter "stutters");
  check Alcotest.int "refine/violations counter present and zero" 0 (counter "violations")

(* ------------------------------------------------------------------ *)
(* Router: epoch-fenced slice handoff and degraded-mode routing.      *)

let router_cfg () =
  Router.make_config ~shards:4 ~slices:8 ~slice_capacity:4 ~ttl:10.0 ~grace:12.0
    ~auto_rebalance:false ()

(* A router whose tap feeds the refinement spec, sized from [cfg]: a
   spec rejection raises [Audit.Violation] from the operation that
   produced the event, failing the test. *)
let spec_router ?suspicion ~clock ~seed (cfg : Router.config) =
  let slice_width =
    Renaming_longlived.Longlived.namespace_for ~sessions:cfg.Router.slice_capacity
      ~epsilon:cfg.Router.epsilon
  in
  let adapter = Lease_adapter.create ~namespace:(cfg.Router.slices * slice_width) () in
  let r =
    Router.create ~tap:(Lease_adapter.router_tap adapter ~slice_width) ?suspicion ~clock ~seed cfg
  in
  assert (Router.slice_width r = slice_width);
  (adapter, r)

let router_fixture ?suspicion () =
  let t, clock = manual_clock () in
  (t, snd (spec_router ?suspicion ~clock ~seed:42L (router_cfg ())))

let grant_on r ~session ~key =
  match Router.acquire r ~session ~key with
  | Router.Granted g -> g
  | _ -> Alcotest.fail "expected a grant"

let test_router_clean_handoff_keeps_leases () =
  let t, r = router_fixture () in
  let g = grant_on r ~session:1 ~key:0 in
  check Alcotest.int "initial owner is shard 0" 0 g.Router.sg_shard;
  let fence = Router.fence_of_grant g in
  (match Router.begin_handoff r ~slice:0 ~to_:1 with
  | Ok () -> ()
  | Error `Unavailable -> Alcotest.fail "handoff refused");
  (* A same-instant pump leaves the transit pending (the crash-injection
     window); mid-transit operations are structured busies, not hangs. *)
  ignore (Router.pump r);
  check Alcotest.int "still in transit" Router.route_in_handoff (Router.route r ~slice:0);
  (match Router.renew r ~fence with
  | Error (`Busy (Router.In_handoff { slice = 0 })) -> ()
  | _ -> Alcotest.fail "mid-transit renew must be In_handoff");
  (match Router.acquire r ~session:2 ~key:0 with
  | Router.Busy (Router.In_handoff _) -> ()
  | _ -> Alcotest.fail "mid-transit acquire must be In_handoff");
  t := 1.0;
  ignore (Router.pump r);
  check Alcotest.(option int) "ownership moved" (Some 1) (Router.owner r ~slice:0);
  check Alcotest.int "epoch bumped with the transfer" 1 (Router.slice_epoch r ~slice:0);
  (* The body moved intact: the pre-handoff lease renews at the new
     shard without ever being fenced. *)
  (match Router.renew r ~fence with
  | Ok _ -> ()
  | _ -> Alcotest.fail "clean handoff broke a live lease");
  let st = Router.stats r in
  check Alcotest.int "one completed handoff" 1 st.Router.handoffs_completed;
  (* A client holding the stale owner hint is redirected, with the
     fresh owner in the payload. *)
  (match Router.acquire ~hint:0 r ~session:3 ~key:0 with
  | Router.Busy (Router.Redirected { shard = 1 }) -> ()
  | _ -> Alcotest.fail "stale hint must redirect");
  match Router.acquire ~hint:1 r ~session:3 ~key:0 with
  | Router.Granted g' -> check Alcotest.int "granted at new owner" 1 g'.Router.sg_shard
  | _ -> Alcotest.fail "fresh hint must grant"

let test_router_src_crash_orphans_then_adopts () =
  let t, r = router_fixture ~suspicion:2.0 () in
  (* The survivors keep heartbeating; shard 0 goes silent at its crash. *)
  let survivors_beat () =
    for shard = 1 to 3 do
      Router.heartbeat r ~shard ~incarnation:0
    done
  in
  let g = grant_on r ~session:1 ~key:0 in
  let fence = Router.fence_of_grant g in
  (match Router.begin_handoff r ~slice:0 ~to_:1 with
  | Ok () -> ()
  | Error `Unavailable -> Alcotest.fail "handoff refused");
  Shard.crash (Router.shard r ~id:0) ~now:0.0;
  ignore (Router.pump r);
  (* The body died with its shard: the slice is dark, every operation
     resolves to a structured outcome. *)
  (match Router.acquire r ~session:2 ~key:0 with
  | Router.Busy (Router.Shard_down _) -> ()
  | _ -> Alcotest.fail "orphaned acquire must be Shard_down");
  (match Router.renew r ~fence with
  | Error (`Busy (Router.Shard_down _)) -> ()
  | _ -> Alcotest.fail "orphaned renew must be Shard_down");
  check Alcotest.int "orphaned mid-transit" 1 (Router.stats r).Router.handoffs_orphaned;
  (* Before the grace nothing may be absorbed (the lost body's leases
     could still be live); after it, a survivor adopts a fresh table. *)
  t := 5.0;
  survivors_beat ();
  ignore (Router.pump r);
  check Alcotest.int "no early adoption" 0 (Router.stats r).Router.adoptions;
  t := 12.5;
  survivors_beat ();
  ignore (Router.pump r);
  check Alcotest.int "adopted after grace" 1 (Router.stats r).Router.adoptions;
  (match Router.owner r ~slice:0 with
  | Some s -> check Alcotest.bool "adopted by a survivor" true (s <> 0)
  | None -> Alcotest.fail "slice still dark after grace");
  (* Shard 0 owned two slices (8 slices over 4 shards): its sibling was
     orphaned when the silence passed suspicion, at 2.0, and is adopted
     a grace later. *)
  t := 14.5;
  survivors_beat ();
  ignore (Router.pump r);
  check Alcotest.int "sibling adopted a grace after suspicion" 2 (Router.stats r).Router.adoptions;
  (* The old incarnation's fence is dead at the fresh body... *)
  (match Router.renew r ~fence with
  | Error `Fenced -> ()
  | _ -> Alcotest.fail "pre-crash fence must be fenced after adoption");
  (* ...and the slice serves again. *)
  match Router.acquire r ~session:3 ~key:0 with
  | Router.Granted _ -> ()
  | _ -> Alcotest.fail "adopted slice must serve"

(* A slice body carries its request state.  Its dedup table and ticket
   waits move with it on a clean handoff and die with it on a crash, and
   an adopted body starts without them, even while the body it replaces
   survives on a stalled shard. *)
let test_router_request_state_moves_with_body () =
  let t, r = router_fixture ~suspicion:2.0 () in
  let beat = List.iter (fun shard -> Router.heartbeat r ~shard ~incarnation:0) in
  let body ~shard ~slice = Shard.find_slice (Router.shard r ~id:shard) ~slice in
  let holds ~shard ~slice =
    match body ~shard ~slice with _ -> true | exception Not_found -> false
  in
  let owned slice =
    match Router.owner r ~slice with
    | Some shard -> body ~shard ~slice
    | None -> Alcotest.fail "the slice is not owned"
  in
  let remember (sl : Shard.slice) =
    Dedup.record sl.Shard.sl_dedup ~client:7 ~seq:1 ~now:!t Reply.B_ok;
    Hashtbl.replace sl.Shard.sl_waits 0 (7, 2)
  in
  let starts_empty what (sl : Shard.slice) =
    (match Dedup.admit sl.Shard.sl_dedup ~client:7 ~seq:1 ~now:!t with
    | Dedup.Fresh -> ()
    | _ -> Alcotest.fail (what ^ ": the adopted body replays a predecessor's entry"));
    check Alcotest.int (what ^ ": the adopted body waits on no ticket") 0
      (Hashtbl.length sl.Shard.sl_waits)
  in
  remember (owned 0);
  (match Router.begin_handoff r ~slice:0 ~to_:1 with
  | Ok () -> ()
  | Error `Unavailable -> Alcotest.fail "handoff refused");
  t := 1.0;
  beat [ 0; 1; 2; 3 ];
  ignore (Router.pump r);
  check Alcotest.(option int) "handed off" (Some 1) (Router.owner r ~slice:0);
  check Alcotest.bool "the source holds no body" true (not (holds ~shard:0 ~slice:0));
  (match Dedup.admit (owned 0).Shard.sl_dedup ~client:7 ~seq:1 ~now:!t with
  | Dedup.Replay Reply.B_ok -> ()
  | _ -> Alcotest.fail "the destination must replay the entry recorded at the source");
  check Alcotest.bool "the wait moved too" true (Hashtbl.mem (owned 0).Shard.sl_waits 0);
  (* The crash takes the body, and so its table and waits. *)
  Shard.crash (Router.shard r ~id:1) ~now:!t;
  check Alcotest.bool "no shard holds a body of the crashed slice" true
    (not (List.exists (fun shard -> holds ~shard ~slice:0) [ 0; 1; 2; 3 ]));
  (* Shard 2 stalls past the grace with an entry in its slice 4 body. *)
  remember (owned 4);
  Shard.stall (Router.shard r ~id:2) ~now:!t ~until:40.0;
  t := 3.5;
  beat [ 0; 3 ];
  ignore (Router.pump r);
  t := 15.0;
  beat [ 0; 3 ];
  ignore (Router.pump r);
  check Alcotest.int "the silent shards' five slices adopted" 5 (Router.stats r).Router.adoptions;
  starts_empty "after a crash" (owned 0);
  check Alcotest.bool "the stalled body still holds its wait" true
    (Hashtbl.mem (body ~shard:2 ~slice:4).Shard.sl_waits 0);
  starts_empty "after a stall" (owned 4)

let test_router_dst_crash_aborts_handoff () =
  let t, r = router_fixture () in
  let g = grant_on r ~session:1 ~key:0 in
  let fence = Router.fence_of_grant g in
  (match Router.begin_handoff r ~slice:0 ~to_:1 with
  | Ok () -> ()
  | Error `Unavailable -> Alcotest.fail "handoff refused");
  Shard.crash (Router.shard r ~id:1) ~now:0.0;
  t := 1.0;
  ignore (Router.pump r);
  (* The destination died: the source keeps the slice under a bumped
     epoch and nothing is stranded or fenced. *)
  check Alcotest.(option int) "source kept the slice" (Some 0) (Router.owner r ~slice:0);
  check Alcotest.int "epoch bumped on abort" 1 (Router.slice_epoch r ~slice:0);
  check Alcotest.int "aborted" 1 (Router.stats r).Router.handoffs_aborted;
  match Router.renew r ~fence with
  | Ok _ -> ()
  | _ -> Alcotest.fail "aborted handoff broke a live lease"

(* With one shard there is nobody else to absorb the slice: a stall past
   the grace leaves it dark until the shard wakes.  The woken shard
   takes the slice back (adopted afresh, or re-owned when its heartbeat
   reaches the failure detector first), and only leases that expired
   meanwhile are fenced. *)
let test_router_one_shard_adopts_back () =
  (match Router.make_config ~shards:0 ~slices:1 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "zero shards accepted");
  let cfg =
    Net_churn.make_config ~faults:Transport.perfect ~clients:24 ~sessions_target:400
      ~router:(Router.make_config ~shards:1 ~slices:1 ~auto_rebalance:false ())
      ~stall:{ Net_churn.st_every = 25.0; st_duration = 18.0 }
      ()
  in
  List.iter
    (fun seed ->
      let s, refine = Lease_adapter.run cfg ~seed in
      check Alcotest.(option (pair string string)) "no violation" None s.Net_churn.violation;
      check Alcotest.bool "the spec heard the run" true (Check.events refine > 0);
      check Alcotest.bool "no livelock" false s.Net_churn.livelocked;
      check Alcotest.int "no unexpected fences" 0 s.Net_churn.unexpected_fenced;
      check Alcotest.int "no fencing holes for ghosts" 0 s.Net_churn.stale_ok;
      check Alcotest.bool "stalls outlived the grace and the slice came back" true
        (s.Net_churn.shard_stalls > 0
        && s.Net_churn.router.Router.adoptions + s.Net_churn.detector.Router.reowns > 0))
    [ 1L; 2L; 3L ]

let test_router_stall_heals () =
  let t, r = router_fixture () in
  let _g = grant_on r ~session:1 ~key:0 in
  Shard.stall (Router.shard r ~id:0) ~now:0.0 ~until:2.0;
  (match Router.acquire r ~session:2 ~key:0 with
  | Router.Busy (Router.Shard_down { shard = 0 }) -> ()
  | _ -> Alcotest.fail "stalled acquire must be Shard_down");
  t := 2.5;
  ignore (Router.pump r);
  (* The stall was shorter than the grace: the shard serves again with
     its bodies (and their leases) intact. *)
  match Router.acquire r ~session:2 ~key:0 with
  | Router.Granted g -> check Alcotest.int "same owner after wake" 0 g.Router.sg_shard
  | _ -> Alcotest.fail "healed shard must serve"

(* A stalled owner answers nothing, whatever the detector thinks of it:
   routing reads the detector's view, but only [Shard.serving] decides
   which body answers, so an in-process operation meets a stall the way
   a forward does.  The stall ends before any suspicion, and the shard
   then serves again with its lease intact. *)
let test_router_stalled_shard_answers_nothing () =
  List.iter
    (fun suspicion ->
      let label what =
        Printf.sprintf "%s (%s)" what
          (match suspicion with None -> "no suspicion" | Some s -> Printf.sprintf "suspicion %g" s)
      in
      let t, r = router_fixture ?suspicion () in
      let fence = Router.fence_of_grant (grant_on r ~session:1 ~key:0) in
      Shard.stall (Router.shard r ~id:0) ~now:0.0 ~until:1.5;
      t := 1.0;
      ignore (Router.pump r);
      check Alcotest.int (label "the stalled owner is still routed to") 0 (Router.route r ~slice:0);
      (match Router.acquire r ~session:2 ~key:0 with
      | Router.Busy (Router.Shard_down { shard = 0 }) -> ()
      | _ -> Alcotest.fail (label "a stalled owner must not grant"));
      (match Router.renew r ~fence with
      | Error (`Busy (Router.Shard_down { shard = 0 })) -> ()
      | _ -> Alcotest.fail (label "a stalled owner must not renew"));
      t := 1.5;
      (match Router.renew r ~fence with
      | Ok _ -> ()
      | _ -> Alcotest.fail (label "the woken owner must renew the live lease"));
      match Router.acquire r ~session:2 ~key:0 with
      | Router.Granted g ->
        check Alcotest.int (label "granted by the woken owner") 0 g.Router.sg_shard
      | _ -> Alcotest.fail (label "the woken owner must grant"))
    [ None; Some 2.0 ]

(* ------------------------------------------------------------------ *)
(* Sharded churn: safety under shard faults, and determinism.         *)

(* Stalls shorter than the grace disrupt nothing, but the renews sent
   into one are lost and a lease can expire under its holder: that fence
   is expiry, not a broken live lease. *)
let shard_churn_cfg () =
  Net_churn.make_config ~faults:Transport.perfect ~router:(Router.make_config ())
    ~clients:32 ~sessions_target:600 ~crash_rate:0.2
    ~handoff:{ Net_churn.h_every = 8.0; h_crash_src = 0.3; h_crash_dst = 0.2 }
    ~shard_burst:{ Net_churn.b_at = 40; b_width = 5; b_failures = 2 }
    ~client_burst:{ Net_churn.b_at = 30; b_width = 5; b_failures = 8 }
    ~stall:{ Net_churn.st_every = 12.0; st_duration = 9.0 }
    ~shard_restart:30.0 ()

let test_shard_churn_safety () =
  let s, refine = Lease_adapter.run (shard_churn_cfg ()) ~seed:0xD15EA5EL in
  check Alcotest.int "all sessions ran" 600 s.Net_churn.sessions;
  check Alcotest.bool "no livelock" false s.Net_churn.livelocked;
  (match s.Net_churn.violation with
  | None -> ()
  | Some (kind, msg) -> Alcotest.fail (Printf.sprintf "violation %s: %s" kind msg));
  check Alcotest.int "no refinement violation" 0 (Check.violations refine);
  check Alcotest.int "no unexpected fences" 0 s.Net_churn.unexpected_fenced;
  check Alcotest.int "no fencing holes for ghosts" 0 s.Net_churn.stale_ok;
  check Alcotest.bool "faults actually injected" true
    (s.Net_churn.shard_crashes >= 2
    && s.Net_churn.router.Router.handoffs_started >= 1)

let test_shard_churn_deterministic () =
  let run () = Net_churn.run (shard_churn_cfg ()) ~seed:0xFACEL in
  let a = run () and b = run () in
  check Alcotest.bool "same seed, same summary" true (a = b);
  let c = Net_churn.run (shard_churn_cfg ()) ~seed:0xFACE2L in
  check Alcotest.bool "different seed, different trajectory" true
    (c.Net_churn.events <> a.Net_churn.events
    || c.Net_churn.retries <> a.Net_churn.retries
    || c.Net_churn.client_crashes <> a.Net_churn.client_crashes)

(* ------------------------------------------------------------------ *)
(* Transport: deterministic lossy messaging with bounded delivery.    *)

let lossy_faults () =
  Transport.make_faults ~drop:0.2 ~duplicate:0.2 ~delay_min:0.01 ~delay_max:0.3
    ~reorder:0.4 ~reorder_extra:0.5 ()

let test_transport_deterministic_and_bounded () =
  let run () =
    let tr = Transport.create ~faults:(lossy_faults ()) ~rng:(Xoshiro.create 77L) () in
    check (Alcotest.float 1e-9) "delivery bound exposed" 0.8 (Transport.max_delay tr);
    for i = 0 to 199 do
      Transport.send tr ~now:(float_of_int i *. 0.01) ~src:(Transport.Client i)
        ~dst:Transport.Router i
    done;
    let log = ref [] in
    let rec pump () =
      let at = Transport.next_delivery tr in
      if at < infinity then begin
        Transport.deliver tr ~now:at (fun src dst payload ->
            if src <> Transport.Client payload || dst <> Transport.Router then
              Alcotest.fail "addresses must come back as sent";
            log := (at, payload) :: !log);
        pump ()
      end
    in
    pump ();
    check Alcotest.int "drained" 0 (Transport.in_flight tr);
    (List.rev !log, Transport.stats tr)
  in
  let log_a, st_a = run () in
  let log_b, st_b = run () in
  check Alcotest.bool "same seed, same deliveries" true (log_a = log_b);
  check Alcotest.bool "same seed, same stats" true (st_a = st_b);
  check Alcotest.bool "drops fired" true (st_a.Transport.dropped > 0);
  check Alcotest.bool "duplicates fired" true (st_a.Transport.duplicated > 0);
  check Alcotest.bool "reorders fired" true (st_a.Transport.reordered > 0);
  (* Conservation: everything accepted (plus its duplicate copies) came
     out, and nothing took longer than the advertised bound. *)
  check Alcotest.int "delivered = sent + duplicated"
    (st_a.Transport.sent + st_a.Transport.duplicated)
    st_a.Transport.delivered;
  List.iter
    (fun (at, payload) ->
      let sent_at = float_of_int payload *. 0.01 in
      check Alcotest.bool "within max_delay of the send" true
        (at -. sent_at <= 0.8 +. 1e-9))
    log_a

(* A drain delivers what was in flight when it began: a zero-delay
   message sent from the handler waits for the next call. *)
let test_transport_drain_boundary () =
  let tr = Transport.create ~faults:Transport.perfect ~rng:(Xoshiro.create 5L) () in
  Transport.send tr ~now:1.0 ~src:(Transport.Client 0) ~dst:(Transport.Shard 3) "ping";
  let got = ref [] in
  let handler src dst payload =
    got := (src, dst, payload) :: !got;
    if payload = "ping" then Transport.send tr ~now:1.0 ~src:dst ~dst:src "pong"
  in
  Transport.deliver tr ~now:1.0 handler;
  check Alcotest.int "only the ping in the first drain" 1 (List.length !got);
  check Alcotest.int "the pong is in flight" 1 (Transport.in_flight tr);
  check Alcotest.bool "and due already" false (Transport.delivery_after tr ~now:1.0);
  Transport.deliver tr ~now:1.0 handler;
  check Alcotest.bool "the pong arrives on the next call, back to the sender" true
    (List.rev !got
    = [
        (Transport.Client 0, Transport.Shard 3, "ping");
        (Transport.Shard 3, Transport.Client 0, "pong");
      ]);
  check Alcotest.int "drained" 0 (Transport.in_flight tr)

let test_transport_partition_directional () =
  let tr = Transport.create ~rng:(Xoshiro.create 5L) () in
  Transport.partition tr ~src:(Transport.Shard 0) ~dst:Transport.Router ~until:5.0;
  (* The rule is directional: shard->router heartbeats vanish while
     router->shard requests still flow. *)
  Transport.send tr ~now:1.0 ~src:(Transport.Shard 0) ~dst:Transport.Router "hb";
  Transport.send tr ~now:1.0 ~src:Transport.Router ~dst:(Transport.Shard 0) "req";
  let st = Transport.stats tr in
  check Alcotest.int "heartbeat blocked" 1 st.Transport.blocked;
  check Alcotest.int "reverse direction unaffected" 1 st.Transport.sent;
  check Alcotest.bool "partitioned while the deadline holds" true
    (Transport.partitioned tr ~now:4.9 ~src:(Transport.Shard 0) ~dst:Transport.Router);
  (* Deadline passes: the rule self-heals at send time. *)
  check Alcotest.bool "healed at the deadline" false
    (Transport.partitioned tr ~now:5.0 ~src:(Transport.Shard 0) ~dst:Transport.Router);
  Transport.send tr ~now:5.0 ~src:(Transport.Shard 0) ~dst:Transport.Router "hb2";
  check Alcotest.int "accepted after heal" 2 (Transport.stats tr).Transport.sent

(* ------------------------------------------------------------------ *)
(* Dedup: at-most-once verdicts and the bounded-window eviction hazard. *)

let dedup_stats () = { Dedup.fresh = 0; replays = 0; stale = 0; evictions = 0 }

let test_dedup_verdicts () =
  let st = dedup_stats () in
  let d = Dedup.create st in
  (match Dedup.admit d ~client:7 ~seq:1 ~now:0.0 with
  | Dedup.Fresh -> ()
  | _ -> Alcotest.fail "first delivery must be fresh");
  Dedup.record d ~client:7 ~seq:1 ~now:0.0 "granted:3";
  (* A retransmit replays the cached reply without re-executing. *)
  (match Dedup.admit d ~client:7 ~seq:1 ~now:0.5 with
  | Dedup.Replay r -> check Alcotest.string "cached reply" "granted:3" r
  | _ -> Alcotest.fail "retransmit must replay");
  (* The client moves on; a reordered straggler of seq 1 is stale. *)
  (match Dedup.admit d ~client:7 ~seq:2 ~now:1.0 with
  | Dedup.Fresh -> ()
  | _ -> Alcotest.fail "next sequence must be fresh");
  Dedup.record d ~client:7 ~seq:2 ~now:1.0 "queued";
  (match Dedup.admit d ~client:7 ~seq:1 ~now:1.5 with
  | Dedup.Stale -> ()
  | _ -> Alcotest.fail "overtaken duplicate must be stale");
  (* Re-recording the same sequence upgrades the cached reply (a queued
     request completing): later retransmits replay the final outcome. *)
  Dedup.record d ~client:7 ~seq:2 ~now:2.0 "granted:5";
  (match Dedup.admit d ~client:7 ~seq:2 ~now:2.5 with
  | Dedup.Replay r -> check Alcotest.string "upgraded reply" "granted:5" r
  | _ -> Alcotest.fail "final outcome must replay");
  check Alcotest.int "fresh" 2 st.Dedup.fresh;
  check Alcotest.int "replays" 2 st.Dedup.replays;
  check Alcotest.int "stale" 1 st.Dedup.stale

let test_dedup_eviction_window () =
  let st = dedup_stats () in
  let d = Dedup.create st in
  (match Dedup.admit d ~client:1 ~seq:1 ~now:0.0 with
  | Dedup.Fresh -> Dedup.record d ~client:1 ~seq:1 ~now:0.0 "reply"
  | _ -> Alcotest.fail "fresh");
  (match Dedup.admit d ~client:1 ~seq:1 ~now:0.0 with
  | Dedup.Replay r -> check Alcotest.string "entry live" "reply" r
  | _ -> Alcotest.fail "a live entry replays");
  check Alcotest.int "young entry survives" 0 (Dedup.sweep d ~window:5.0 ~now:4.0);
  check Alcotest.int "idle entry evicted" 1 (Dedup.sweep d ~window:5.0 ~now:6.0);
  (* A sweep far past the window evicts every entry left: none. *)
  check Alcotest.int "table empty" 0 (Dedup.sweep d ~window:5.0 ~now:1e9);
  (* This is exactly why the window must outlive the retry horizon plus
     the network's delivery bound: after eviction a late duplicate of
     seq 1 is indistinguishable from a new request and re-executes. *)
  (match Dedup.admit d ~client:1 ~seq:1 ~now:7.0 with
  | Dedup.Fresh -> ()
  | _ -> Alcotest.fail "post-eviction duplicate admits as fresh");
  check Alcotest.int "eviction counted" 1 st.Dedup.evictions

(* ------------------------------------------------------------------ *)
(* Failure detector: suspicion, recovery with re-own, incarnation.    *)

let detector_fixture () = router_fixture ~suspicion:2.0 ()

let test_router_detector_suspicion_and_recovery () =
  let t, r = detector_fixture () in
  let g = grant_on r ~session:1 ~key:0 in
  let fence = Router.fence_of_grant g in
  t := 1.0;
  Router.heartbeat r ~shard:0 ~incarnation:0;
  t := 2.5;
  ignore (Router.pump r);
  check Alcotest.(option int) "fresh heartbeat keeps it available" (Some 0) (Router.owner r ~slice:0);
  (* Heartbeats go quiet: at last + suspicion the sweep flags the shard
     and routing stops forwarding, even though the body is fine. *)
  t := 3.5;
  ignore (Router.pump r);
  check Alcotest.(option int) "silence past suspicion orphans its slices" None
    (Router.owner r ~slice:0);
  check Alcotest.int "suspected shard must not be routed to" Router.route_down
    (Router.route r ~slice:0);
  (match Router.acquire r ~session:2 ~key:0 with
  | Router.Busy _ -> ()
  | _ -> Alcotest.fail "suspected acquire must be busy");
  (* A late heartbeat heals the false suspicion: the orphaned slices are
     handed back at the same epoch with every lease intact. *)
  t := 4.0;
  Router.heartbeat r ~shard:0 ~incarnation:0;
  check Alcotest.int "suspicion cleared" 0 (Router.route r ~slice:0);
  let d = Router.detector_stats r in
  check Alcotest.bool "suspicion counted" true (d.Router.suspicions >= 1);
  check Alcotest.int "recovery counted" 1 d.Router.recoveries;
  check Alcotest.bool "slices re-owned" true (d.Router.reowns >= 1);
  check Alcotest.int "no incarnation orphans" 0 d.Router.incarnation_orphans;
  (match Router.renew r ~fence with
  | Ok _ -> ()
  | _ -> Alcotest.fail "false suspicion must never cost a live lease");
  match Router.acquire r ~session:3 ~key:0 with
  | Router.Granted _ -> ()
  | _ -> Alcotest.fail "recovered shard must serve"

let test_router_detector_incarnation_orphans () =
  let t, r = detector_fixture () in
  let g = grant_on r ~session:1 ~key:0 in
  let fence = Router.fence_of_grant g in
  t := 1.0;
  (* A higher incarnation number announces an amnesiac restart while the
     shard was never suspected: everything the previous incarnation
     owned is orphaned immediately — the detector cannot wait for the
     sweep, because the new incarnation heartbeats happily. *)
  Router.heartbeat r ~shard:0 ~incarnation:1;
  let d = Router.detector_stats r in
  check Alcotest.int "previous incarnation's slices orphaned" 2
    d.Router.incarnation_orphans;
  check Alcotest.int "not a suspicion" 0 d.Router.suspicions;
  (match Router.renew r ~fence with
  | Error (`Busy _) -> ()
  | _ -> Alcotest.fail "orphaned renew must be busy");
  (* After grace the orphans are adopted at a bumped epoch and the old
     incarnation's fence is dead.  Adoption runs on the detector view,
     so the survivors must be heartbeating to be eligible adopters. *)
  t := 14.0;
  for shard = 1 to 3 do
    Router.heartbeat r ~shard ~incarnation:0
  done;
  Router.heartbeat r ~shard:0 ~incarnation:1;
  ignore (Router.pump r);
  check Alcotest.bool "adopted after grace" true ((Router.stats r).Router.adoptions >= 1);
  match Router.renew r ~fence with
  | Error `Fenced -> ()
  | _ -> Alcotest.fail "pre-restart fence must be fenced after adoption"

(* ------------------------------------------------------------------ *)
(* Net churn: end-to-end safety over the lossy transport, determinism. *)

let net_churn_cfg () =
  Net_churn.make_config ~clients:24 ~sessions_target:400
    ~faults:
      (Transport.make_faults ~drop:0.05 ~duplicate:0.1 ~delay_min:0.01 ~delay_max:0.08
         ~reorder:0.15 ~reorder_extra:0.2 ())
    ~shard_crash_every:30.0 ~shard_restart:2.0
    ()

let test_net_churn_safety () =
  let s, refine = Lease_adapter.run (net_churn_cfg ()) ~seed:0xD15EA5EL in
  check Alcotest.int "all sessions ran" 400 s.Net_churn.sessions;
  check Alcotest.bool "no livelock" false s.Net_churn.livelocked;
  (match s.Net_churn.violation with
  | None -> ()
  | Some (kind, msg) -> Alcotest.fail (Printf.sprintf "violation %s: %s" kind msg));
  check Alcotest.int "at-most-once end to end" 0 s.Net_churn.double_grants;
  check Alcotest.int "no unexpected fences" 0 s.Net_churn.unexpected_fenced;
  check Alcotest.int "no fencing holes for ghosts" 0 s.Net_churn.stale_ok;
  check Alcotest.int "no refinement violation" 0 (Check.violations refine);
  (* The faults must actually have fired for the run to prove anything. *)
  check Alcotest.bool "network faults exercised" true
    (s.Net_churn.net.Transport.dropped > 0
    && s.Net_churn.net.Transport.duplicated > 0
    && s.Net_churn.dedup.Dedup.replays > 0
    && s.Net_churn.resends > 0
    && s.Net_churn.shard_crashes > 0)

let test_net_churn_deterministic () =
  let run () = Net_churn.run (net_churn_cfg ()) ~seed:0xFACEL in
  let a = run () and b = run () in
  check Alcotest.bool "same seed, same summary" true (a = b);
  let c = Net_churn.run (net_churn_cfg ()) ~seed:0xFACE2L in
  check Alcotest.bool "different seed, different trajectory" true
    (c.Net_churn.events <> a.Net_churn.events
    || c.Net_churn.resends <> a.Net_churn.resends
    || c.Net_churn.net.Transport.dropped <> a.Net_churn.net.Transport.dropped)

let test_net_churn_config_validation () =
  let faults = Transport.make_faults ~delay_min:0.01 ~delay_max:0.1 () in
  (* Each sizing rule from docs/fault_model.md §8 is enforced, not
     merely documented. *)
  (match Net_churn.make_config ~hb_every:2.0 ~suspicion:1.5 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "suspicion <= hb_every must be rejected");
  (match Net_churn.make_config ~faults ~dedup_window:0.5 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "dedup window below the retry horizon must be rejected");
  (match
     Net_churn.make_config
       ~router:(Router.make_config ~ttl:15.0 ~grace:15.0 ~auto_rebalance:false ())
       ()
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "grace below ttl + heartbeat + 2*delay must be rejected");
  (* Holds past the ttl are fine where no renew can be lost, and rejected
     where one can. *)
  let router = Router.make_config ~ttl:10.0 () in
  ignore (Net_churn.make_config ~router ~faults:Transport.perfect ~mean_hold:20.0 ());
  (match
     Net_churn.make_config ~router ~faults:(Transport.make_faults ~drop:0.05 ())
       ~mean_hold:20.0 ()
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "holds past the ttl on a lossy network must be rejected");
  (* Malformed plans are rejected by name, not left to spin until the
     livelock guard or to fail inside the run. *)
  let rejected what f =
    match f () with
    | exception Invalid_argument msg ->
      check Alcotest.bool (what ^ " named") true
        (String.length msg > 21 && String.sub msg 0 21 = "Net_churn.make_config")
    | _ -> Alcotest.fail (what ^ " must be rejected")
  in
  let burst ~at ~width ~failures =
    { Net_churn.b_at = at; b_width = width; b_failures = failures }
  in
  let handoff every src dst = { Net_churn.h_every = every; h_crash_src = src; h_crash_dst = dst } in
  let stall every duration = { Net_churn.st_every = every; st_duration = duration } in
  List.iter
    (fun (what, f) -> rejected what f)
    [
      ("stall every 0", fun () -> Net_churn.make_config ~stall:(stall 0.0 5.0) ());
      ("stall duration 0", fun () -> Net_churn.make_config ~stall:(stall 10.0 0.0) ());
      ("handoff every 0", fun () -> Net_churn.make_config ~handoff:(handoff 0.0 0.1 0.1) ());
      ("negative src crash", fun () -> Net_churn.make_config ~handoff:(handoff 5.0 (-0.1) 0.1) ());
      ("negative dst crash", fun () -> Net_churn.make_config ~handoff:(handoff 5.0 0.1 (-0.1)) ());
      ("crash odds above 1", fun () -> Net_churn.make_config ~handoff:(handoff 5.0 0.6 0.5) ());
      ( "whole-fleet shard burst",
        fun () -> Net_churn.make_config ~shard_burst:(burst ~at:10 ~width:5 ~failures:4) () );
      ( "empty client burst",
        fun () -> Net_churn.make_config ~client_burst:(burst ~at:10 ~width:5 ~failures:0) () );
      ( "zero-width burst",
        fun () -> Net_churn.make_config ~client_burst:(burst ~at:10 ~width:0 ~failures:3) () );
      ( "burst before time 0",
        fun () -> Net_churn.make_config ~shard_burst:(burst ~at:(-1) ~width:5 ~failures:1) () );
      ("crash every 0", fun () -> Net_churn.make_config ~shard_crash_every:0.0 ());
      ("restart delay 0", fun () -> Net_churn.make_config ~shard_restart:0.0 ());
    ]

(* Every forced handoff loses its source mid-transit: the body dies with
   the source, so the slice is orphaned and adopted fresh, and its dedup
   table and queue tickets must die with it. *)
let test_net_churn_handoff_src_crash () =
  let cfg =
    Net_churn.make_config ~faults:Transport.perfect ~router:(Router.make_config ())
      ~clients:24 ~sessions_target:400 ~shard_restart:10.0
      ~handoff:{ Net_churn.h_every = 8.0; h_crash_src = 1.0; h_crash_dst = 0.0 }
      ()
  in
  let s, refine = Lease_adapter.run cfg ~seed:0x0DDL in
  check Alcotest.int "all sessions ran" 400 s.Net_churn.sessions;
  check Alcotest.bool "no livelock" false s.Net_churn.livelocked;
  (match s.Net_churn.violation with
  | None -> ()
  | Some (kind, msg) -> Alcotest.fail (Printf.sprintf "violation %s: %s" kind msg));
  check Alcotest.int "no refinement violation" 0 (Check.violations refine);
  check Alcotest.int "at-most-once end to end" 0 s.Net_churn.double_grants;
  check Alcotest.int "no unexpected fences" 0 s.Net_churn.unexpected_fenced;
  check Alcotest.int "no fencing holes for ghosts" 0 s.Net_churn.stale_ok;
  check Alcotest.bool "sources crashed mid-transit" true
    (s.Net_churn.router.Router.handoffs_orphaned > 0)

(* ------------------------------------------------------------------ *)
(* Admission deadline expiry is a first-class observable.             *)

let test_service_deadline_expired_metric () =
  let obs = Obs.create () in
  let time, clock = manual_clock () in
  let cfg =
    Service.make_config
      ~lease:(Lease.make_config ~capacity:1 ~ttl:50.0 ())
      ~admission:
        (Admission.make_config ~queue_limit:4 ~request_timeout:1.0 ~high_water:1.5 ())
      ()
  in
  let meters = Service.meters ~obs () in
  let svc = Service.create ~meters ~clock ~rng:(Xoshiro.create 3L) cfg in
  (match Service.acquire svc ~session:1 with
  | Service.Granted _ -> ()
  | _ -> Alcotest.fail "grant 1");
  (match Service.acquire svc ~session:2 with
  | Service.Queued _ -> ()
  | _ -> Alcotest.fail "queue 2");
  let expired () = Metrics.find_counter (Obs.metrics obs) "service/expired_requests" in
  check Alcotest.(option int) "nothing expired yet" (Some 0) (expired ());
  (* The queued request hits its deadline while the slot is still held:
     the pump reports Timed_out and the counter must agree. *)
  time := 2.0;
  (match Service.pump svc with
  | [ Service.Timed_out { session = 2; _ } ] -> ()
  | _ -> Alcotest.fail "expected the queued request to time out");
  check Alcotest.int "stats count the expiry" 1 (Service.stats meters).Service.expired_requests;
  check Alcotest.(option int) "service/expired_requests counter mirrors it" (Some 1) (expired ())

(* ------------------------------------------------------------------ *)
(* Pinned behaviour: fixed-seed figures that any change to the pumps   *)
(* must reproduce exactly.                                             *)

let render_net_churn (s : Net_churn.summary) =
  let d = s.Net_churn.dedup and fd = s.Net_churn.detector and r = s.Net_churn.router in
  let n = s.Net_churn.net in
  String.concat "\n"
    [
      Printf.sprintf "sessions=%d abandoned=%d events=%d sim_time=%.6f peak=%d final=%d"
        s.Net_churn.sessions s.Net_churn.abandoned s.Net_churn.events s.Net_churn.sim_time
        s.Net_churn.peak_held s.Net_churn.final_held;
      Printf.sprintf "resends=%d timeouts=%d lost=%d sheds=%d redirects=%d down=%d handoff=%d"
        s.Net_churn.resends s.Net_churn.timeouts s.Net_churn.lost_tickets s.Net_churn.sheds
        s.Net_churn.redirects s.Net_churn.shard_down_busy s.Net_churn.in_handoff_busy;
      Printf.sprintf "fenced=%d/%d dropped_releases=%d late=%d stale=%d/%d/%d"
        s.Net_churn.expected_fenced s.Net_churn.unexpected_fenced s.Net_churn.releases_dropped
        s.Net_churn.late_grants_released s.Net_churn.stale_ops s.Net_churn.stale_rejected
        s.Net_churn.stale_ok;
      Printf.sprintf "faults crashes=%d/%d restarts=%d/%d partitions=%d"
        s.Net_churn.client_crashes s.Net_churn.shard_crashes s.Net_churn.client_restarts
        s.Net_churn.shard_restarts s.Net_churn.partitions;
      Printf.sprintf "net sent=%d delivered=%d dropped=%d duplicated=%d reordered=%d blocked=%d"
        n.Transport.sent n.Transport.delivered n.Transport.dropped n.Transport.duplicated
        n.Transport.reordered n.Transport.blocked;
      Printf.sprintf "dedup fresh=%d replays=%d stale=%d evictions=%d" d.Dedup.fresh
        d.Dedup.replays d.Dedup.stale d.Dedup.evictions;
      Printf.sprintf "detector suspicions=%d recoveries=%d reowns=%d incarnation_orphans=%d"
        fd.Router.suspicions fd.Router.recoveries fd.Router.reowns
        fd.Router.incarnation_orphans;
      Printf.sprintf
        "router handoffs=%d/%d/%d/%d adoptions=%d redirects=%d downs=%d in_handoff=%d fenced=%d"
        r.Router.handoffs_started r.Router.handoffs_completed r.Router.handoffs_aborted
        r.Router.handoffs_orphaned r.Router.adoptions r.Router.redirects r.Router.shard_downs
        r.Router.in_handoff_busy r.Router.fenced_ops;
    ]

let pinned_net_churn_config () =
  Net_churn.make_config ~clients:24 ~sessions_target:400
    ~router:(Router.make_config ~slice_capacity:4 ~ttl:15.0 ~grace:24.0 ())
    ~faults:
      (Transport.make_faults ~drop:0.05 ~duplicate:0.1 ~delay_min:0.01 ~delay_max:0.08
         ~reorder:0.15 ~reorder_extra:0.2 ())
    ~partition:{ Net_churn.p_every = 20.0; p_duration = 8.0; p_both = 0.5 }
    ~shard_crash_every:45.0 ~shard_restart:2.0
    ~dedup_window:33.0 ()

let test_pinned_net_churn () =
  let s, refine = Lease_adapter.run (pinned_net_churn_config ()) ~seed:0x5EEDL in
  check Alcotest.(option (pair string string)) "no violation" None s.Net_churn.violation;
  check Alcotest.bool "the spec heard the run" true (Check.events refine > 0);
  check Alcotest.string "lossy net churn summary"
    "sessions=400 abandoned=9 events=12851 sim_time=228.103419 peak=26 final=0\n\
     resends=472 timeouts=1 lost=0 sheds=13 redirects=43 down=482 handoff=0\n\
     fenced=0/0 dropped_releases=21 late=1 stale=27/27/0\n\
     faults crashes=46/5 restarts=46/5 partitions=10\n\
     net sent=7282 delivered=8014 dropped=418 duplicated=732 reordered=1204 blocked=86\n\
     dedup fresh=1599 replays=414 stale=25 evictions=2\n\
     detector suspicions=21 recoveries=18 reowns=28 incarnation_orphans=8\n\
     router handoffs=19/19/0/0 adoptions=8 redirects=44 downs=524 in_handoff=0 fenced=0"
    (render_net_churn s)

(* A run's service counts cover every slice body it ever made, not only
   the bodies still resident at its end: shard crashes, adoptions and
   crashed handoffs drop bodies, and their grants must still be counted,
   once each.  The router's tap hears every grant. *)
let test_net_churn_counts_dropped_bodies () =
  let handoff_crash =
    Net_churn.make_config ~clients:48 ~sessions_target:1500 ~faults:Transport.perfect
      ~router:(Router.make_config ~slice_capacity:4 ~ttl:15.0 ~grace:24.0 ~auto_rebalance:false ())
      ~handoff:{ Net_churn.h_every = 6.0; h_crash_src = 0.3; h_crash_dst = 0.3 }
      ~shard_restart:4.0 ()
  in
  List.iter
    (fun (name, cfg) ->
      let heard = ref 0 in
      let tap = function
        | Router.Tap_audit { ev = Audit.Granted _; _ } -> incr heard
        | Router.Tap_audit _ | Router.Tap_absorb _ -> ()
      in
      let s = Net_churn.run ~tap cfg ~seed:0x5EEDL in
      let r = s.Net_churn.router in
      check Alcotest.bool (name ^ ": bodies were dropped") true
        (s.Net_churn.shard_crashes > 0 && r.Router.adoptions > 0);
      check Alcotest.int (name ^ ": grants = grants the tap heard") !heard
        s.Net_churn.service.Service.grants;
      check Alcotest.int (name ^ ": one probe count per grant") !heard
        (Renaming_obs.Hist.count s.Net_churn.h_probes))
    [ ("pinned lossy", pinned_net_churn_config ()); ("handoff crash", handoff_crash) ]

(* A hand-clocked service driven only through its public operations and
   a pump every tick.  For the first 20 time units nobody renews or
   releases, so leases expire and are reclaimed while queued requests
   time out; after that most holders release or renew early, several
   operations a tick, so the expiry heap fills with dead entries and
   compacts. *)
let test_pinned_service_pump () =
  let spec, tap = service_spec ~capacity:4 () in
  let meters = Service.meters () in
  let time, svc =
    service ~meters ~tap ~capacity:4 ~ttl:4.0 ~queue_limit:3 ~request_timeout:1.0 ~high_water:1.5 ()
  in
  let rng = Xoshiro.create 99L in
  let draw n = Renaming_rng.Sample.uniform_int rng n in
  let held = ref [] and next_session = ref 0 in
  let completions = Buffer.create 1024 and n_completions = ref 0 in
  let pick () = List.nth !held (draw (List.length !held)) in
  let acquire () =
    incr next_session;
    match Service.acquire svc ~session:!next_session with
    | Service.Granted g -> held := g.Lease.g_fence :: !held
    | Service.Queued _ | Service.Shed _ -> ()
  in
  let release () =
    let f = pick () in
    held := List.filter (fun g -> g != f) !held;
    ignore (Service.release svc ~fence:f)
  in
  for step = 1 to 800 do
    time := !time +. (0.0625 *. float_of_int (1 + draw 3));
    if !time <= 20.0 then begin
      match draw 10 with
      | 0 | 1 | 2 | 3 | 4 -> acquire ()
      | 5 | 6 when !held <> [] -> ignore (Service.use svc ~fence:(pick ()))
      | _ -> ()
    end
    else
      for _ = 1 to 3 do
        match draw 20 with
        | 0 | 1 | 2 | 3 | 4 | 5 | 6 -> acquire ()
        | (7 | 8 | 9 | 10 | 11 | 12 | 13) when !held <> [] -> release ()
        | (14 | 15 | 16 | 17) when !held <> [] -> ignore (Service.renew svc ~fence:(pick ()))
        | (18 | 19) when !held <> [] -> ignore (Service.use svc ~fence:(pick ()))
        | _ -> ()
      done;
    List.iter
      (fun c ->
        incr n_completions;
        match c with
        | Service.Done { ticket; session; grant; waited } ->
          held := grant.Lease.g_fence :: !held;
          Printf.bprintf completions "%d:D%d/%d/%d/%.3f;" step ticket session
            grant.Lease.g_fence.Lease.f_name waited
        | Service.Timed_out { ticket; session; waited } ->
          Printf.bprintf completions "%d:T%d/%d/%.3f;" step ticket session waited)
      (Service.pump svc)
  done;
  let st = Service.stats meters in
  let buckets h =
    String.concat " "
      (List.filter_map
         (fun (b, n) -> if n = 0 then None else Some (Printf.sprintf "%s:%d" b n))
         (Renaming_obs.Hist.buckets h))
  in
  check Alcotest.string "service stats"
    "grants=582 queued=293 renews=344 releases=560 fenced=58 sheds=0/142 expired=29 \
     reclaims=18 validates=188 held=4 depth=2 live=4"
    (Printf.sprintf
       "grants=%d queued=%d renews=%d releases=%d fenced=%d sheds=%d/%d expired=%d \
        reclaims=%d validates=%d held=%d depth=%d live=%d"
       st.Service.grants st.Service.queued st.Service.renews st.Service.releases
       st.Service.fenced st.Service.sheds_high_water st.Service.sheds_queue_full
       st.Service.expired_requests st.Service.reclaims st.Service.validates
       (Service.held svc)
       (* Queued requests leave the queue only as pump completions. *)
       (st.Service.queued - !n_completions)
       (Spec.held (Check.spec spec)));
  check Alcotest.string "completions" "291 ff59fbc0dd47f4470b31a4292570a785"
    (Printf.sprintf "%d %s" !n_completions
       (Digest.to_hex (Digest.string (Buffer.contents completions))));
  check Alcotest.string "reclaim lateness" "<=1:9 5..8:6 9..16:3"
    (buckets (Service.reclaim_lateness_hist meters));
  check Alcotest.string "queue wait" "<=1:26 5..8:27 9..16:42 17..32:89 33..64:58 65..128:49"
    (buckets (Service.queue_wait_hist meters))

(* ------------------------------------------------------------------ *)
(* The chaos campaign runner: totals, JSON and checks.                *)

let test_chaos_campaign_runner () =
  let module C = Renaming_harness.Chaos_campaign in
  let module Json = Renaming_obs.Json in
  let r = C.run C.service ~sessions:300 ~seeds:[| 1L |] in
  check Alcotest.int "one run per cell" 4 (List.length r.C.runs);
  check Alcotest.int "sessions summed" 1200 (List.assoc "sessions" r.C.totals);
  check Alcotest.(list string) "safe and exercised" [] (C.failures C.service r);
  (match Json.of_string (Json.to_document (C.to_json C.service r)) with
  | Ok j ->
    check Alcotest.(option string) "schema" (Some "renaming.chaos-service/6")
      (Option.bind (Json.member "schema" j) Json.to_str)
  | Error e -> Alcotest.fail e);
  (* Ghosts that never wake leave the fencing path unexercised, and the
     campaign must say so rather than report clean. *)
  let no_ghosts =
    {
      C.service with
      C.cells =
        (fun ~sessions ->
          List.map
            (fun (name, cfg) -> (name, { cfg with Net_churn.stale_wakeup = 0.0 }))
            (C.service.C.cells ~sessions));
    }
  in
  check Alcotest.(list string) "ghost check fires" [ "no ghost replays (not exercised)" ]
    (C.failures no_ghosts (C.run no_ghosts ~sessions:300 ~seeds:[| 1L |]))

(* ------------------------------------------------------------------ *)
(* An idle pump is free: the net path pumps before every event, and   *)
(* almost never has work.                                              *)

(* Minor-heap words allocated by [calls] runs of [f], after one warm-up
   run.  [Gc.minor_words] is unboxed in native code, so the probe
   itself allocates nothing. *)
let minor_words ~calls f =
  ignore (Sys.opaque_identity (f ()));
  let before = Gc.minor_words () in
  for _ = 1 to calls do
    ignore (Sys.opaque_identity (f ()))
  done;
  int_of_float (Gc.minor_words () -. before)

let test_idle_service_pump_allocates_nothing () =
  let time, svc = service ~capacity:4 ~ttl:10.0 () in
  let fences =
    List.filter_map
      (fun session ->
        match Service.acquire svc ~session with
        | Service.Granted g -> Some g.Lease.g_fence
        | _ -> None)
      [ 1; 2; 3 ]
  in
  List.iter (fun fence -> ignore (Service.renew svc ~fence)) fences;
  time := 2.0;
  check Alcotest.int "nothing due" 0 (List.length (Service.pump svc));
  check Alcotest.int "idle pump allocates no minor words" 0
    (minor_words ~calls:1000 (fun () -> Service.pump svc));
  check Alcotest.int "and changes nothing" 3 (Service.held svc)

let test_idle_router_pump_allocation () =
  let time, clock = manual_clock () in
  let cfg = Router.make_config () in
  let r = Router.create ~clock ~seed:7L cfg in
  for key = 0 to 15 do
    ignore (grant_on r ~session:(key + 1) ~key)
  done;
  time := 1.0;
  check Alcotest.int "nothing due" 0 (List.length (Router.pump r));
  check Alcotest.int "idle pump allocates no minor words" 0
    (minor_words ~calls:1000 (fun () -> Router.pump r));
  check Alcotest.int "and changes nothing" 16 (Router.total_held r)

(* A renewal and a validation go from the tap straight to the spec: the
   adapter builds no event for them, so judging one allocates nothing
   (the tap events themselves are built beforehand). *)
let test_spec_renew_validate_allocation () =
  let adapter = Lease_adapter.create ~namespace:(2 * slice_width) () in
  let tap = Lease_adapter.router_tap adapter ~slice_width in
  let c = Lease_adapter.check adapter in
  let f = fence ~name:3 ~session:7 ~epoch:1 in
  tap (Router.Tap_audit { slice = 1; now = 0.0; ev = granted ~name:3 ~session:7 10.0 });
  let calls = 1000 in
  let renews =
    Array.init (calls + 1) (fun i ->
        let now = float_of_int (i + 1) in
        Router.Tap_audit
          { slice = 1; now; ev = Audit.Renewed { fence = f; expires = now +. 10.0; accepted = true } })
  in
  let validate =
    Router.Tap_audit
      { slice = 1; now = float_of_int (calls + 1); ev = Audit.Validated { fence = f; accepted = true } }
  in
  let i = ref (-1) in
  let steps () = Check.events c - Check.stutters c in
  let before = steps () in
  check Alcotest.int "a renew through the adapter allocates nothing" 0
    (minor_words ~calls (fun () ->
         incr i;
         tap renews.(!i)));
  check Alcotest.int "every renew moved the expiry" (calls + 1) (steps () - before);
  check Alcotest.int "a validate through the adapter allocates nothing" 0
    (minor_words ~calls (fun () -> tap validate));
  check Alcotest.int "and nothing was rejected" 0 (Check.violations c)

(* Once its columns have grown, the heap moves entries within them: a
   push and a take allocate nothing.  [time] is a float constant, so
   passing it boxes nothing either. *)
let test_heap_steady_state_allocation () =
  let h = Heap.create () in
  for i = 0 to 99 do
    Heap.push h ~time:(float_of_int (i mod 7)) ~aux:i i
  done;
  let time = 3.5 in
  check Alcotest.int "push + take allocate no minor words" 0
    (minor_words ~calls:1000 (fun () ->
         Heap.push h ~time ~aux:1 7;
         Heap.take h));
  check Alcotest.int "and keep the size" 100 (Heap.size h)

(* [push_after] and [push_cell] are [push] at the time they stand for
   (a negative delay counting as none), and neither boxes that time. *)
let test_heap_push_variants () =
  let reference = Heap.create () and h = Heap.create () in
  let cells = Float.Array.make 2 0. in
  List.iteri
    (fun i (now, delay) ->
      Heap.push reference ~time:(Float.max (now +. delay) now) ~aux:i i;
      if i mod 2 = 0 then Heap.push_after h ~now ~delay ~aux:i i
      else begin
        Float.Array.set cells 1 (Float.max (now +. delay) now);
        Heap.push_cell h cells 1 ~aux:i i
      end)
    [ (0.1, 0.2); (0.1, 0.2); (1.0, -0.5); (0.3, 0.); (0.7, 0.05); (0.2, 0.1); (1.0, 0.) ];
  check
    (Alcotest.list (Alcotest.triple (Alcotest.float 0.) Alcotest.int Alcotest.int))
    "same take order" (heap_drain reference) (heap_drain h);
  let now = 2.0 and delay = 0.75 in
  check Alcotest.int "push_after + push_cell + takes allocate no minor words" 0
    (minor_words ~calls:1000 (fun () ->
         Heap.push_after h ~now ~delay ~aux:1 7;
         Heap.push_cell h cells 1 ~aux:2 8;
         ignore (Heap.take h);
         Heap.take h))

(* The net-lossy configuration of the end-to-end benchmark (without its
   refinement tap and telemetry), at a pinned seed.  The driver loop,
   the transport and the heaps allocate nothing per message, timers are
   ints, and a session costs about 767 minor words.  The budget sits 5%
   above that, so a change that puts a list, a closure, an event record
   or a boxed float back on the per-message path fails here before it
   shows in the benchmark. *)
let test_net_churn_allocation_budget () =
  let cfg =
    Net_churn.make_config ~sessions_target:300
      ~faults:
        (Transport.make_faults ~drop:0.05 ~duplicate:0.05 ~reorder:0.1 ~reorder_extra:0.05 ())
      ~renew_every:0.5 ()
  in
  let before = Gc.minor_words () in
  let s = Net_churn.run cfg ~seed:1L in
  let words = Gc.minor_words () -. before in
  check Alcotest.int "sessions" 300 s.Net_churn.sessions;
  let per_session = int_of_float (words /. float_of_int s.Net_churn.sessions) in
  if per_session > 805 then
    Alcotest.failf "%d minor words a session, over the budget of 805" per_session

(* [Net_churn] samples [Router.total_held] only after a step that
   granted, which is exact only if the total never rises without a
   grant.  Random scripts of router operations, operations made on a
   resident body directly (as a forward reaches it), silent shard
   crashes, restarts, stalls, handoffs,
   heartbeats and pumps check that after every step, with the
   refinement spec on the router's tap judging every event. *)
type router_step =
  | S_acquire of int
  | S_direct of int
  | S_release of int
  | S_renew of int
  | S_crash of int
  | S_restart of int
  | S_stall of int * int
  | S_handoff of int * int
  | S_heartbeat of int
  | S_pump
  | S_advance of int

let qcheck_held_rises_only_at_grants =
  let shards = 3 and slices = 6 in
  let step =
    QCheck.Gen.(
      frequency
        [
          (6, map (fun k -> S_acquire k) (int_bound 11));
          (3, map (fun k -> S_direct k) (int_bound (slices - 1)));
          (3, map (fun i -> S_release i) (int_bound 20));
          (2, map (fun i -> S_renew i) (int_bound 20));
          (2, map (fun s -> S_crash s) (int_bound (shards - 1)));
          (2, map (fun s -> S_restart s) (int_bound (shards - 1)));
          (1, map2 (fun s d -> S_stall (s, d)) (int_bound (shards - 1)) (int_range 1 30));
          (2, map2 (fun sl d -> S_handoff (sl, d)) (int_bound (slices - 1)) (int_bound (shards - 1)));
          (3, map (fun s -> S_heartbeat s) (int_bound (shards - 1)));
          (6, return S_pump);
          (5, map (fun d -> S_advance d) (int_range 1 8));
        ])
  in
  let print = function
    | S_acquire k -> Printf.sprintf "acquire %d" k
    | S_direct sl -> Printf.sprintf "direct %d" sl
    | S_release i -> Printf.sprintf "release %d" i
    | S_renew i -> Printf.sprintf "renew %d" i
    | S_crash s -> Printf.sprintf "crash %d" s
    | S_restart s -> Printf.sprintf "restart %d" s
    | S_stall (s, d) -> Printf.sprintf "stall %d %d" s d
    | S_handoff (sl, d) -> Printf.sprintf "handoff %d->%d" sl d
    | S_heartbeat s -> Printf.sprintf "heartbeat %d" s
    | S_pump -> "pump"
    | S_advance d -> Printf.sprintf "advance %d" d
  in
  QCheck.Test.make ~count:300 ~name:"router: the held total rises only at a grant"
    (QCheck.make
       ~print:QCheck.Print.(pair bool (pair bool (list print)))
       QCheck.Gen.(pair bool (pair bool (list_size (int_range 1 150) step))))
    (fun (detector, (auto_rebalance, script)) ->
      let time, clock = manual_clock () in
      let _, r =
        spec_router
          ?suspicion:(if detector then Some 3.0 else None)
          ~clock ~seed:9L
          (Router.make_config ~shards ~slices ~slice_capacity:3 ~queue_limit:4 ~ttl:10.0
             ~grace:14.0 ~high_water:0.9 ~auto_rebalance ())
      in
      let fences = ref [] and session = ref 0 and peak = ref 0 in
      let pick i = match !fences with [] -> None | l -> Some (List.nth l (i mod List.length l)) in
      (* The body a forward reaches, as [Net_churn.on_shard] serves it:
         routed on the directory and the detector, served by the body
         [Shard.serving] finds at the forwarded epoch. *)
      let body slice =
        let shard = Router.route r ~slice in
        if shard < 0 then None
        else
          Option.map
            (fun sl -> sl.Shard.sl_svc)
            (Shard.serving (Router.shard r ~id:shard) ~slice
               ~epoch:(Router.slice_epoch r ~slice) ~now:!time)
      in
      List.iter
        (fun step ->
          incr session;
          let granted =
            match step with
            | S_acquire key -> (
              match Router.acquire r ~session:!session ~key with
              | Router.Granted g ->
                fences := Router.fence_of_grant g :: !fences;
                true
              | _ -> false)
            | S_direct slice -> (
              match body slice with
              | Some svc -> (
                match Service.acquire svc ~session:!session with
                | Service.Granted g ->
                  fences := { Router.gf_slice = slice; gf_fence = g.Lease.g_fence } :: !fences;
                  true
                | _ -> false)
              | None -> false)
            | S_release i ->
              Option.iter (fun fence -> ignore (Router.release r ~fence)) (pick i);
              false
            | S_renew i ->
              Option.iter (fun fence -> ignore (Router.renew r ~fence)) (pick i);
              false
            | S_crash id ->
              Shard.crash (Router.shard r ~id) ~now:!time;
              false
            | S_restart id ->
              let sh = Router.shard r ~id in
              if not (Shard.alive sh ~now:!time) then Shard.restart sh;
              false
            | S_stall (id, d) ->
              Shard.stall (Router.shard r ~id) ~now:!time ~until:(!time +. float_of_int d);
              false
            | S_handoff (slice, to_) ->
              ignore (Router.begin_handoff r ~slice ~to_);
              false
            | S_heartbeat shard ->
              let sh = Router.shard r ~id:shard in
              if Shard.alive sh ~now:!time then
                Router.heartbeat r ~shard ~incarnation:(Shard.incarnation sh);
              false
            | S_pump ->
              List.exists
                (fun c ->
                  match c.Router.c_done with Service.Done _ -> true | Service.Timed_out _ -> false)
                (Router.pump r)
            | S_advance d ->
              time := !time +. float_of_int d;
              false
          in
          let held = Router.total_held r in
          if granted && held > !peak then peak := held;
          if held > !peak then
            QCheck.Test.fail_reportf "held %d after %s, above the peak %d sampled at grants" held
              (print step) !peak)
        script;
      true)

(* ------------------------------------------------------------------ *)
(* The router's wake guard: a pump it skips is one that would have    *)
(* changed nothing, so work is never delayed past the pump that would *)
(* have done it.                                                      *)

let full_pumps r = (Router.stats r).Router.full_pumps

(* [Net_churn.on_shard] serves a request on the body it finds in the
   shard, without going through the router; the router must still hear
   of the queued request. *)
let test_wake_direct_body_op () =
  let time, clock = manual_clock () in
  let _, r =
    spec_router ~clock ~seed:3L
      (Router.make_config ~shards:1 ~slices:1 ~slice_capacity:2 ~high_water:1.5
         ~auto_rebalance:false ())
  in
  let f1 = Router.fence_of_grant (grant_on r ~session:1 ~key:0) in
  ignore (grant_on r ~session:2 ~key:0);
  time := 1.0;
  check Alcotest.int "nothing due" 0 (List.length (Router.pump r));
  let before = full_pumps r in
  ignore (Router.pump r);
  check Alcotest.int "an idle pump is skipped" before (full_pumps r);
  let body =
    match Shard.find_slice (Router.shard r ~id:0) ~slice:0 with
    | sl -> sl.Shard.sl_svc
    | exception Not_found -> Alcotest.fail "no resident body"
  in
  let ticket =
    match Service.acquire body ~session:3 with
    | Service.Queued ticket -> ticket
    | _ -> Alcotest.fail "at capacity the request must queue"
  in
  (match Service.release body ~fence:f1.Router.gf_fence with
  | Ok _ -> ()
  | Error `Fenced -> Alcotest.fail "live release fenced");
  time := 1.5;
  match Router.pump r with
  | [ { Router.c_done = Service.Done { ticket = t; session = 3; _ }; _ } ] ->
    check Alcotest.int "the queued ticket" ticket t
  | _ -> Alcotest.fail "the first pump after capacity frees must grant the queued request"

(* The smallest clock reading at which [now -. last > suspicion]. *)
let first_past ~last ~suspicion =
  let past x = x -. last > suspicion in
  let rec down x = if past (Float.pred x) then down (Float.pred x) else x in
  let rec up x = if past x then down x else up (Float.succ x) in
  up (last +. suspicion)

let test_wake_detector_deadline () =
  let time, r = router_fixture ~suspicion:0.2 () in
  time := 0.1;
  for shard = 0 to 3 do
    Router.heartbeat r ~shard ~incarnation:0
  done;
  ignore (Router.pump r);
  let deadline = first_past ~last:0.1 ~suspicion:0.2 in
  time := 0.2;
  ignore (Router.pump r);
  time := Float.pred deadline;
  ignore (Router.pump r);
  check Alcotest.(option int) "not suspected at the last reading within suspicion" (Some 0)
    (Router.owner r ~slice:0);
  time := deadline;
  ignore (Router.pump r);
  check Alcotest.(option int) "suspected on the first pump past last + suspicion" None
    (Router.owner r ~slice:0)

let test_wake_stall_end () =
  let time, r = router_fixture () in
  ignore (grant_on r ~session:1 ~key:0);
  time := 1.0;
  ignore (Router.pump r);
  (* Shorter than the grace: the slice stays with the stalled shard. *)
  Shard.stall (Router.shard r ~id:0) ~now:1.0 ~until:11.0;
  List.iter
    (fun at ->
      time := at;
      ignore (Router.pump r);
      check Alcotest.int (Printf.sprintf "stalled at %g: nothing reclaimed" at) 1
        (Router.total_held r))
    [ 1.0; 10.0; 10.5; Float.pred 11.0 ];
  time := 11.0;
  ignore (Router.pump r);
  check Alcotest.int "the overdue lease is reclaimed on the first pump at [until]" 0
    (Router.total_held r)

let two_shard_router ?suspicion () =
  let time, clock = manual_clock () in
  ( time,
    snd
      (spec_router ?suspicion ~clock ~seed:5L
         (Router.make_config ~shards:2 ~slices:2 ~ttl:10.0 ~grace:12.0 ~auto_rebalance:false ()))
  )

(* A restart made on the shard itself, as [Net_churn] makes it, lets a
   stranded orphan be adopted on the next pump.  Both shards crash while
   slice 0 is in transit between them, which orphans it. *)
let test_wake_shard_restart () =
  let time, r = two_shard_router () in
  (match Router.begin_handoff r ~slice:0 ~to_:1 with
  | Ok () -> ()
  | Error `Unavailable -> Alcotest.fail "handoff refused");
  Shard.crash (Router.shard r ~id:0) ~now:0.0;
  Shard.crash (Router.shard r ~id:1) ~now:0.0;
  ignore (Router.pump r);
  time := 13.0;
  ignore (Router.pump r);
  check Alcotest.(option int) "no shard left to adopt" None (Router.owner r ~slice:0);
  time := 14.0;
  let before = full_pumps r in
  ignore (Router.pump r);
  check Alcotest.int "a stranded orphan does not keep every pump full" before (full_pumps r);
  Shard.restart (Router.shard r ~id:0);
  ignore (Router.pump r);
  check Alcotest.(option int) "adopted on the next pump" (Some 0) (Router.owner r ~slice:0)

(* Shard 1 restarts amnesiac but stays unavailable until its first
   heartbeat reaches the detector; that heartbeat re-owns nothing, yet
   it makes shard 1 an adopter. *)
let test_wake_heartbeat () =
  let time, r = two_shard_router ~suspicion:1.0 () in
  Shard.crash (Router.shard r ~id:0) ~now:0.0;
  Shard.crash (Router.shard r ~id:1) ~now:0.0;
  time := 2.0;
  ignore (Router.pump r);
  Shard.restart (Router.shard r ~id:1);
  time := 14.0;
  ignore (Router.pump r);
  check Alcotest.(option int) "nobody available to adopt" None (Router.owner r ~slice:0);
  Router.heartbeat r ~shard:1 ~incarnation:1;
  ignore (Router.pump r);
  check Alcotest.(option int) "adopted on the next pump" (Some 1) (Router.owner r ~slice:0)

let test_wake_handoff () =
  let time, r = router_fixture () in
  ignore (grant_on r ~session:1 ~key:0);
  time := 1.0;
  ignore (Router.pump r);
  ignore (Router.pump r);
  (match Router.begin_handoff r ~slice:0 ~to_:1 with
  | Ok () -> ()
  | Error `Unavailable -> Alcotest.fail "handoff refused");
  ignore (Router.pump r);
  check Alcotest.int "a same-instant pump leaves it in transit" Router.route_in_handoff
    (Router.route r ~slice:0);
  time := Float.succ 1.0;
  ignore (Router.pump r);
  check Alcotest.(option int) "moved on the next strictly later pump" (Some 1)
    (Router.owner r ~slice:0)

let tests =
  [
    ( "service",
      [
        Alcotest.test_case "heap deterministic order" `Quick test_heap_deterministic_order;
        Alcotest.test_case "lease capacity + release" `Quick test_lease_capacity_and_release;
        Alcotest.test_case "reclaim skips renewed" `Quick test_lease_reclaim_skips_renewed;
        Alcotest.test_case "admission shed + expire" `Quick test_admission_shed_and_expire;
        Alcotest.test_case "minter uniqueness" `Quick test_minter_unique_across_blocks;
        Alcotest.test_case "audit: double grant" `Quick test_audit_catches_double_grant;
        Alcotest.test_case "audit: stale accept" `Quick test_audit_catches_stale_accept;
        Alcotest.test_case "audit: early reclaim" `Quick test_audit_catches_early_reclaim;
        Alcotest.test_case "audit: time regression" `Quick test_audit_catches_time_regression;
        Alcotest.test_case "spec: global double grant" `Quick test_spec_catches_global_double_grant;
        Alcotest.test_case "spec: early absorb" `Quick test_spec_catches_early_absorb;
        Alcotest.test_case "spec: capacity and expiry regression" `Quick
          test_spec_catches_capacity_and_expiry_regression;
        Alcotest.test_case "service: queue + reclaim" `Quick test_service_queue_then_reclaim_grant;
        Alcotest.test_case "service: queue drains" `Quick test_service_queue_drain_done;
        Alcotest.test_case "service: high-water shed" `Quick test_service_high_water_shed;
        Alcotest.test_case "service: stale fence" `Quick test_service_stale_fence_rejected;
        Alcotest.test_case "churn: safety + reclaim" `Quick test_churn_safety_and_reclaim;
        Alcotest.test_case "churn: deterministic" `Quick test_churn_deterministic;
        Alcotest.test_case "heap: compaction order" `Quick test_heap_compact_preserves_order;
        Alcotest.test_case "lease: heap compaction" `Quick test_lease_heap_compaction;
        Alcotest.test_case "audit: metrics counters" `Quick test_audit_metrics_counters;
        Alcotest.test_case "router: clean handoff" `Quick test_router_clean_handoff_keeps_leases;
        Alcotest.test_case "router: src crash -> adopt" `Quick test_router_src_crash_orphans_then_adopts;
        Alcotest.test_case "router: dst crash -> abort" `Quick test_router_dst_crash_aborts_handoff;
        Alcotest.test_case "router: request state moves with its body" `Quick
          test_router_request_state_moves_with_body;
        Alcotest.test_case "router: stall heals" `Quick test_router_stall_heals;
        Alcotest.test_case "router: a stalled shard answers nothing" `Quick
          test_router_stalled_shard_answers_nothing;
        Alcotest.test_case "router: one shard adopts its slice back" `Quick
          test_router_one_shard_adopts_back;
        Alcotest.test_case "shard churn: safety" `Quick test_shard_churn_safety;
        Alcotest.test_case "shard churn: deterministic" `Quick test_shard_churn_deterministic;
        Alcotest.test_case "transport: deterministic + bounded" `Quick
          test_transport_deterministic_and_bounded;
        Alcotest.test_case "transport: a drain stops at its entry bound" `Quick
          test_transport_drain_boundary;
        Alcotest.test_case "transport: directional partition" `Quick
          test_transport_partition_directional;
        Alcotest.test_case "dedup: verdicts" `Quick test_dedup_verdicts;
        Alcotest.test_case "dedup: eviction window" `Quick test_dedup_eviction_window;
        Alcotest.test_case "detector: suspicion + recovery" `Quick
          test_router_detector_suspicion_and_recovery;
        Alcotest.test_case "detector: incarnation orphans" `Quick
          test_router_detector_incarnation_orphans;
        Alcotest.test_case "net churn: safety" `Quick test_net_churn_safety;
        Alcotest.test_case "net churn: deterministic" `Quick test_net_churn_deterministic;
        Alcotest.test_case "net churn: handoff source crash" `Quick
          test_net_churn_handoff_src_crash;
        Alcotest.test_case "net churn: config validation" `Quick
          test_net_churn_config_validation;
        Alcotest.test_case "service: deadline-expiry metric" `Quick
          test_service_deadline_expired_metric;
        Alcotest.test_case "chaos campaign: totals, json, checks" `Quick
          test_chaos_campaign_runner;
        Alcotest.test_case "pinned: lossy net churn" `Quick test_pinned_net_churn;
        Alcotest.test_case "net churn: counts dropped bodies" `Quick
          test_net_churn_counts_dropped_bodies;
        Alcotest.test_case "pinned: pump-driven service" `Quick test_pinned_service_pump;
        Alcotest.test_case "idle service pump allocates nothing" `Quick
          test_idle_service_pump_allocates_nothing;
        Alcotest.test_case "idle router pump allocation" `Quick test_idle_router_pump_allocation;
        Alcotest.test_case "spec: a renew and a validate allocate nothing" `Quick
          test_spec_renew_validate_allocation;
        Alcotest.test_case "heap: push + take allocate nothing" `Quick
          test_heap_steady_state_allocation;
        Alcotest.test_case "heap: push_after and push_cell" `Quick test_heap_push_variants;
        Alcotest.test_case "net churn: allocation budget" `Quick
          test_net_churn_allocation_budget;
        Alcotest.test_case "wake: a direct body op wakes the router" `Quick
          test_wake_direct_body_op;
        Alcotest.test_case "wake: detector deadline" `Quick test_wake_detector_deadline;
        Alcotest.test_case "wake: stall end" `Quick test_wake_stall_end;
        Alcotest.test_case "wake: handoff" `Quick test_wake_handoff;
        Alcotest.test_case "wake: shard restart" `Quick test_wake_shard_restart;
        Alcotest.test_case "wake: heartbeat" `Quick test_wake_heartbeat;
        QCheck_alcotest.to_alcotest qcheck_compact_preserves_pop_order;
        QCheck_alcotest.to_alcotest qcheck_heap_differential;
        QCheck_alcotest.to_alcotest qcheck_held_rises_only_at_grants;
        QCheck_alcotest.to_alcotest qcheck_expiry_monotone;
        QCheck_alcotest.to_alcotest qcheck_reclaim_never_revokes_renewed;
        QCheck_alcotest.to_alcotest qcheck_stale_fence_never_writes;
      ] );
  ]
