type status = Alive | Stalled of { since : float; until : float } | Crashed of { since : float }

type slice = {
  sl_id : int;
  mutable sl_epoch : int;
  sl_svc : Service.t;
  sl_dedup : Reply.t Dedup.t;
  sl_waits : (int, int * int) Hashtbl.t;
}

type t = {
  id : int;
  wake : Service.wake;
  mutable status : status;
  mutable incarnation : int;
  mutable slices : slice list;  (* bodies resident here, sorted by sl_id *)
}

let create ~id ~wake = { id; wake; status = Alive; incarnation = 0; slices = [] }

let id t = t.id
let incarnation t = t.incarnation
let slices t = t.slices

(* A stall heals by itself once the clock passes [until]; crashes only
   heal through an explicit restart. *)
let status t ~now =
  match t.status with
  | Stalled { until; _ } when now >= until ->
    t.status <- Alive;
    Alive
  | s -> s

let alive t ~now = match status t ~now with Alive -> true | Stalled _ | Crashed _ -> false

let rec find_in ~slice = function
  | [] -> raise Not_found
  | sl :: rest -> if sl.sl_id = slice then sl else find_in ~slice rest

let find_slice t ~slice = find_in ~slice t.slices

let serving t ~slice ~epoch ~now =
  if alive t ~now then
    match find_slice t ~slice with
    | sl when sl.sl_epoch = epoch -> Some sl
    | _ | exception Not_found -> None
  else None

let attach t sl =
  t.slices <- List.sort (fun a b -> compare a.sl_id b.sl_id) (sl :: t.slices)

let detach t ~slice =
  match find_slice t ~slice with
  | exception Not_found -> None
  | sl ->
    t.slices <- List.filter (fun s -> s.sl_id <> slice) t.slices;
    Some sl

(* A status change can give the owner's pump work at once (a restarted
   shard may adopt an orphan), so each one wakes it. *)
let set_status t s =
  t.status <- s;
  t.wake.Service.at <- neg_infinity

(* Crashing loses every resident slice body — the state is gone, exactly
   like a process crash in the fault model.  The router moves the
   directory entries to orphaned; reclamation happens by lease expiry. *)
let crash t ~now =
  set_status t (Crashed { since = now });
  t.slices <- []

let restart t =
  t.incarnation <- t.incarnation + 1;
  set_status t Alive
let stall t ~now ~until = if until > now then set_status t (Stalled { since = now; until })

let rec held_in acc = function
  | [] -> acc
  | sl :: rest -> held_in (acc + Service.held sl.sl_svc) rest

let held t = held_in 0 t.slices
