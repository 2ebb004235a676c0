module Longlived = Renaming_longlived.Longlived
module Sample = Renaming_rng.Sample

type config = { capacity : int; epsilon : float; ttl : float; probe_cap : int }

let make_config ?(epsilon = 0.5) ?(ttl = 10.0) ?probe_cap ~capacity () =
  if capacity < 1 then invalid_arg "Lease.make_config: capacity must be >= 1";
  if epsilon <= 0. then invalid_arg "Lease.make_config: epsilon must be positive";
  if ttl <= 0. then invalid_arg "Lease.make_config: ttl must be positive";
  let slots = Longlived.namespace_for ~sessions:capacity ~epsilon in
  let probe_cap = match probe_cap with Some c -> c | None -> 64 * slots in
  if probe_cap < 0 then invalid_arg "Lease.make_config: probe_cap must be >= 0";
  { capacity; epsilon; ttl; probe_cap }

type fence = { f_name : int; f_session : int; f_epoch : int }

type t = {
  cfg : config;
  n_slots : int;
  epochs : int array;  (* bumped on every grant and every release/reclaim *)
  holders : int array;  (* session id, or -1 when free *)
  expiries : float array;  (* valid only while held *)
  grant_times : float array;
  expiry_queue : int Heap.t;  (* name, with its epoch as aux — lazy deletion *)
  mutable n_held : int;
}

let create cfg =
  let n_slots = Longlived.namespace_for ~sessions:cfg.capacity ~epsilon:cfg.epsilon in
  {
    cfg;
    n_slots;
    epochs = Array.make n_slots 0;
    holders = Array.make n_slots (-1);
    expiries = Array.make n_slots 0.;
    grant_times = Array.make n_slots 0.;
    expiry_queue = Heap.create ();
    n_held = 0;
  }

let slots t = t.n_slots
let held t = t.n_held
let utilization t = float_of_int t.n_held /. float_of_int t.cfg.capacity

type grant = { g_fence : fence; g_probes : int; g_swept : bool }

let fence_matches t fence =
  fence.f_name >= 0 && fence.f_name < t.n_slots
  && t.holders.(fence.f_name) = fence.f_session
  && t.epochs.(fence.f_name) = fence.f_epoch

let grant_slot t ~name ~session ~now =
  t.epochs.(name) <- t.epochs.(name) + 1;
  t.holders.(name) <- session;
  t.expiries.(name) <- now +. t.cfg.ttl;
  t.grant_times.(name) <- now;
  t.n_held <- t.n_held + 1;
  let fence = { f_name = name; f_session = session; f_epoch = t.epochs.(name) } in
  Heap.push_after t.expiry_queue ~now ~delay:t.cfg.ttl ~aux:fence.f_epoch name;
  fence

let acquire t ~session ~now ~rng =
  if t.n_held >= t.cfg.capacity then Error `At_capacity
  else begin
    let rec probe k =
      if k >= t.cfg.probe_cap then None
      else
        let name = Sample.uniform_int rng t.n_slots in
        if t.holders.(name) < 0 then Some (name, k + 1) else probe (k + 1)
    in
    match probe 0 with
    | Some (name, probes) ->
      Ok { g_fence = grant_slot t ~name ~session ~now; g_probes = probes; g_swept = false }
    | None ->
      (* Deterministic sweep: held < capacity <= slots, so a free slot
         exists and the sweep cannot fail. *)
      let rec sweep i = if t.holders.(i) < 0 then i else sweep (i + 1) in
      let name = sweep 0 in
      Ok
        {
          g_fence = grant_slot t ~name ~session ~now;
          g_probes = t.cfg.probe_cap + name + 1;
          g_swept = true;
        }
  end

(* A heap entry is live iff it is the slot's *current* expiry under the
   current epoch: renewed, released and reclaimed leases all leave dead
   entries behind (lazy deletion), which compaction discards. *)
let entry_live t ~time ~aux:epoch name =
  t.epochs.(name) = epoch && t.holders.(name) >= 0 && t.expiries.(name) = time

let compaction_due t =
  let sz = Heap.size t.expiry_queue in
  sz > 32 && sz > 2 * t.n_held

let maybe_compact t =
  if compaction_due t then
    Heap.compact t.expiry_queue ~live:(fun ~time ~aux name -> entry_live t ~time ~aux name)

let renew t ~fence ~now =
  if not (fence_matches t fence) then Error `Fenced
  else begin
    let expiry = now +. t.cfg.ttl in
    t.expiries.(fence.f_name) <- expiry;
    Heap.push_after t.expiry_queue ~now ~delay:t.cfg.ttl ~aux:fence.f_epoch fence.f_name;
    maybe_compact t;
    Ok expiry
  end

let validate t ~fence = if fence_matches t fence then Ok () else Error `Fenced

let free_slot t ~name =
  t.epochs.(name) <- t.epochs.(name) + 1;
  t.holders.(name) <- -1;
  t.n_held <- t.n_held - 1

let release t ~fence ~now =
  if not (fence_matches t fence) then Error `Fenced
  else begin
    let held_for = now -. t.grant_times.(fence.f_name) in
    free_slot t ~name:fence.f_name;
    Ok held_for
  end

type reclaimed = { r_fence : fence; r_lateness : float }

let reclaim_expired t ~now =
  let rec drain acc =
    if not (Heap.due t.expiry_queue ~now) then List.rev acc
    else begin
      let epoch = Heap.top_aux t.expiry_queue in
      let name = Heap.take t.expiry_queue in
      if t.epochs.(name) <> epoch || t.holders.(name) < 0 then
        (* Stale entry: the lease was renewed, released, or already
           reclaimed since this heap entry was pushed. *)
        drain acc
      else if t.expiries.(name) > now then
        (* Renewed to a later expiry under the same epoch — the newer
           heap entry will cover it. *)
        drain acc
      else begin
        let fence = { f_name = name; f_session = t.holders.(name); f_epoch = epoch } in
        let r_lateness = now -. t.expiries.(name) in
        free_slot t ~name;
        drain ({ r_fence = fence; r_lateness } :: acc)
      end
    end
  in
  let reclaimed = drain [] in
  maybe_compact t;
  reclaimed

let due t ~now = compaction_due t || Heap.due t.expiry_queue ~now

let next_due t = if compaction_due t then neg_infinity else Heap.top_time t.expiry_queue

let pending_expiries t = Heap.size t.expiry_queue
