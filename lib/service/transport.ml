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

(* In flight, a message is its payload in the heap's value column and
   its two addresses packed into the [aux] column as codes: [Router] is
   0, [Shard s] is [2s + 1] and [Client i] is [2i + 2].  [addrs] maps a
   code back to an address value sent earlier, so decoding allocates
   nothing. *)
let code_bits = 31

let code =
  let index i =
    if i < 0 || i >= 1 lsl 29 then invalid_arg "Transport.send: address index out of range";
    2 * i
  in
  function Router -> 0 | Shard s -> index s + 1 | Client i -> index i + 2

type 'a t = {
  faults : faults;
  rng : Renaming_rng.Xoshiro.t;
  flight : 'a Heap.t;
  arrival_cell : Float.Array.t;  (* a send's delivery time, kept unboxed *)
  mutable addrs : addr array;
  mutable partitions : (addr * addr * float) list;
  st : stats;
}

let create ?(faults = perfect) ~rng () =
  {
    faults;
    rng;
    flight = Heap.create ();
    arrival_cell = Float.Array.make 1 0.;
    addrs = Array.make 16 Router;
    partitions = [];
    st =
      { sent = 0; delivered = 0; dropped = 0; duplicated = 0; reordered = 0; blocked = 0 };
  }

let max_delay t = t.faults.delay_max +. t.faults.reorder_extra

let partition t ~src ~dst ~until =
  t.partitions <-
    (src, dst, until) :: List.filter (fun (s, d, _) -> (s, d) <> (src, dst)) t.partitions

let rec blocked_by ~now ~src ~dst = function
  | [] -> false
  | (s, d, until) :: rest -> (s = src && d = dst && now < until) || blocked_by ~now ~src ~dst rest

let partitioned t ~now ~src ~dst = blocked_by ~now ~src ~dst t.partitions

(* Remember [a] under its code, so that a delivery can hand it back. *)
let intern t a =
  let c = code a in
  let n = Array.length t.addrs in
  if c >= n then begin
    let addrs = Array.make (max (c + 1) (2 * n)) Router in
    Array.blit t.addrs 0 addrs 0 n;
    t.addrs <- addrs
  end;
  if c <> 0 && t.addrs.(c) == Router then t.addrs.(c) <- a;
  c

(* [Renaming_rng.Sample.float_unit] and [Sample.bernoulli], written out
   here: the same draw and the same arithmetic, but a float returned
   from [Sample] would be boxed. *)
let[@inline] float_unit t =
  float_of_int (Renaming_rng.Xoshiro.next_int63 t.rng lsr 9) *. 0x1.0p-53

let[@inline] bernoulli t p = float_unit t < p

(* The delivery time of one copy: a uniform delay, plus the reorder
   extra with probability [reorder]. *)
let[@inline] arrival t ~now =
  let f = t.faults in
  let base = f.delay_min +. (float_unit t *. (f.delay_max -. f.delay_min)) in
  if f.reorder > 0. && bernoulli t f.reorder then begin
    t.st.reordered <- t.st.reordered + 1;
    now +. (base +. (float_unit t *. f.reorder_extra))
  end
  else now +. base

let send t ~now ~src ~dst payload =
  if blocked_by ~now ~src ~dst t.partitions then t.st.blocked <- t.st.blocked + 1
  else if t.faults.drop > 0. && bernoulli t t.faults.drop then
    t.st.dropped <- t.st.dropped + 1
  else begin
    let aux = (intern t src lsl code_bits) lor intern t dst in
    Float.Array.set t.arrival_cell 0 (arrival t ~now);
    Heap.push_cell t.flight t.arrival_cell 0 ~aux payload;
    t.st.sent <- t.st.sent + 1;
    if t.faults.duplicate > 0. && bernoulli t t.faults.duplicate then begin
      Float.Array.set t.arrival_cell 0 (arrival t ~now);
      Heap.push_cell t.flight t.arrival_cell 0 ~aux payload;
      t.st.duplicated <- t.st.duplicated + 1
    end
  end

let next_delivery t = Heap.top_time t.flight

let delivers_first t heap = Heap.top_le t.flight heap

let delivery_after t ~now = Heap.top_after t.flight ~now

(* Only messages pushed before entry: one sent from inside [f] waits for
   the next call, even when it is due already. *)
let deliver t ~now f =
  let bound = Heap.pushed t.flight in
  while Heap.due_before t.flight ~now ~seq:bound do
    let aux = Heap.top_aux t.flight in
    let payload = Heap.take t.flight in
    t.st.delivered <- t.st.delivered + 1;
    f t.addrs.(aux lsr code_bits) t.addrs.(aux land ((1 lsl code_bits) - 1)) payload
  done

let in_flight t = Heap.size t.flight
let stats t = t.st
