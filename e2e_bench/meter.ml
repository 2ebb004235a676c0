let now () = Int64.to_int (Monotonic_clock.now ())

type span = { kind : int; start : int; stop : int; parent : int; rid : int }

let root_kind = -1

type t = {
  kinds : string array;
  lats : Lat.t array;
  traced : bool;
  cap : int;
  (* The span window as parallel int arrays, so recording allocates
     nothing. *)
  s_kind : int array;
  s_start : int array;
  s_stop : int array;
  s_parent : int array;
  s_rid : int array;
  mutable len : int;
  mutable root : int;
  mutable rep_start : int;
  mutable timed : int;
}

let span_cap = 20_000

let create ~traced kinds =
  let cap = if traced then span_cap + 1 else 0 in
  {
    kinds;
    lats = Array.map (fun _ -> Lat.create ()) kinds;
    traced;
    cap;
    s_kind = Array.make cap 0;
    s_start = Array.make cap 0;
    s_stop = Array.make cap 0;
    s_parent = Array.make cap 0;
    s_rid = Array.make cap 0;
    len = 0;
    root = -1;
    rep_start = 0;
    timed = 0;
  }

let traced m = m.traced
let kinds m = m.kinds
let lat m k = m.lats.(k)
let timed_ns m = m.timed

let push m kind ~parent ~rid t0 t1 =
  if m.len >= m.cap then -1
  else begin
    let i = m.len in
    m.s_kind.(i) <- kind;
    m.s_start.(i) <- t0;
    m.s_stop.(i) <- t1;
    m.s_parent.(i) <- parent;
    m.s_rid.(i) <- rid;
    m.len <- i + 1;
    i
  end

let start_rep m =
  m.timed <- 0;
  m.len <- 0;
  m.rep_start <- now ();
  m.root <- (if m.traced then push m root_kind ~parent:(-1) ~rid:0 m.rep_start 0 else -1)

let end_rep m =
  let t1 = now () in
  if m.root >= 0 then m.s_stop.(m.root) <- t1;
  t1 - m.rep_start

let record m kind t0 t1 =
  let d = t1 - t0 in
  m.timed <- m.timed + d;
  if kind = 0 || m.traced then Lat.record m.lats.(kind) d

let call m kind ~rid t0 =
  let t1 = now () in
  record m kind t0 t1;
  if m.traced then ignore (push m kind ~parent:m.root ~rid t0 t1)

let open_ m kind ~rid t0 = if m.traced then push m kind ~parent:m.root ~rid t0 0 else -1

let close m id kind t0 =
  let t1 = now () in
  record m kind t0 t1;
  if id >= 0 then m.s_stop.(id) <- t1

let child m kind ~parent ~rid t0 t1 =
  if m.traced then begin
    Lat.record m.lats.(kind) (t1 - t0);
    ignore (push m kind ~parent ~rid t0 t1)
  end

let spans m =
  Array.init m.len (fun i ->
      {
        kind = m.s_kind.(i);
        start = m.s_start.(i);
        stop = m.s_stop.(i);
        parent = m.s_parent.(i);
        rid = m.s_rid.(i);
      })
