module Sample = Renaming_rng.Sample

type addr = Client of int | Router | Shard of int

type faults = {
  drop : float;
  duplicate : float;
  delay_min : float;
  delay_max : float;
  reorder : float;
  reorder_extra : float;
}

let make_faults ?(drop = 0.) ?(duplicate = 0.) ?(delay_min = 0.01) ?(delay_max = 0.05)
    ?(reorder = 0.) ?(reorder_extra = 0.) () =
  let prob name p =
    if p < 0. || p > 1. then
      invalid_arg (Printf.sprintf "Transport.make_faults: %s must be in [0, 1]" name)
  in
  prob "drop" drop;
  prob "duplicate" duplicate;
  prob "reorder" reorder;
  if delay_min < 0. then invalid_arg "Transport.make_faults: delay_min must be >= 0";
  if delay_max < delay_min then
    invalid_arg "Transport.make_faults: delay_max must be >= delay_min";
  if reorder_extra < 0. then
    invalid_arg "Transport.make_faults: reorder_extra must be >= 0";
  { drop; duplicate; delay_min; delay_max; reorder; reorder_extra }

let perfect =
  { drop = 0.; duplicate = 0.; delay_min = 0.; delay_max = 0.; reorder = 0.;
    reorder_extra = 0. }

type stats = {
  mutable sent : int;
  mutable delivered : int;
  mutable dropped : int;
  mutable duplicated : int;
  mutable reordered : int;
  mutable blocked : int;
}

type 'a msg = { m_src : addr; m_dst : addr; m_payload : 'a }

type 'a t = {
  faults : faults;
  rng : Renaming_rng.Xoshiro.t;
  flight : 'a msg Heap.t;
  mutable partitions : (addr * addr * float) list;
  st : stats;
}

let create ?(faults = perfect) ~rng () =
  {
    faults;
    rng;
    flight = Heap.create ();
    partitions = [];
    st =
      { sent = 0; delivered = 0; dropped = 0; duplicated = 0; reordered = 0; blocked = 0 };
  }

let max_delay t = t.faults.delay_max +. t.faults.reorder_extra

let partition t ~src ~dst ~until =
  t.partitions <-
    (src, dst, until) :: List.filter (fun (s, d, _) -> (s, d) <> (src, dst)) t.partitions

let heal t ~src ~dst =
  t.partitions <- List.filter (fun (s, d, _) -> (s, d) <> (src, dst)) t.partitions

let partitioned t ~now ~src ~dst =
  List.exists (fun (s, d, until) -> s = src && d = dst && now < until) t.partitions

let sample_delay t =
  let f = t.faults in
  let base = f.delay_min +. (Sample.float_unit t.rng *. (f.delay_max -. f.delay_min)) in
  if f.reorder > 0. && Sample.bernoulli t.rng f.reorder then begin
    t.st.reordered <- t.st.reordered + 1;
    base +. (Sample.float_unit t.rng *. f.reorder_extra)
  end
  else base

let send t ~now ~src ~dst payload =
  if partitioned t ~now ~src ~dst then t.st.blocked <- t.st.blocked + 1
  else if t.faults.drop > 0. && Sample.bernoulli t.rng t.faults.drop then
    t.st.dropped <- t.st.dropped + 1
  else begin
    let msg = { m_src = src; m_dst = dst; m_payload = payload } in
    Heap.push t.flight ~time:(now +. sample_delay t) msg;
    t.st.sent <- t.st.sent + 1;
    if t.faults.duplicate > 0. && Sample.bernoulli t.rng t.faults.duplicate then begin
      Heap.push t.flight ~time:(now +. sample_delay t) msg;
      t.st.duplicated <- t.st.duplicated + 1
    end
  end

let next_delivery t = Heap.top_time t.flight

let deliver t ~now =
  let rec drain acc =
    if not (Heap.due t.flight ~now) then List.rev acc
    else
      match Heap.pop t.flight with
      | Some (_, m) ->
        t.st.delivered <- t.st.delivered + 1;
        drain ((m.m_src, m.m_dst, m.m_payload) :: acc)
      | None -> List.rev acc
  in
  drain []

let in_flight t = Heap.size t.flight
let stats t = t.st
