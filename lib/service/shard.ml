type status = Alive | Stalled of { since : float; until : float } | Crashed of { since : float }

type slice = { sl_id : int; mutable sl_epoch : int; mutable sl_svc : Service.t }

type stats = {
  mutable crashes : int;
  mutable restarts : int;
  mutable stalls : int;
  mutable dropped_slices : int;
}

type t = {
  id : int;
  mutable status : status;
  mutable slices : slice list;  (* bodies resident here, sorted by sl_id *)
  st : stats;
}

let create ~id =
  { id; status = Alive; slices = []; st = { crashes = 0; restarts = 0; stalls = 0; dropped_slices = 0 } }

let id t = t.id
let stats t = t.st
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
  | [] -> None
  | sl :: rest -> if sl.sl_id = slice then Some sl else find_in ~slice rest

let find_slice t ~slice = find_in ~slice t.slices

(* The pump's lookup: walks the resident list directly, so a slice with
   nothing due costs no allocation at all. *)
let rec pump_in ~slice ~epoch = function
  | [] -> []
  | sl :: rest ->
    if sl.sl_id <> slice then pump_in ~slice ~epoch rest
    else if sl.sl_epoch = epoch then Service.pump sl.sl_svc
    else []

let pump_slice t ~slice ~epoch = pump_in ~slice ~epoch t.slices

let attach t sl =
  t.slices <- List.sort (fun a b -> compare a.sl_id b.sl_id) (sl :: t.slices)

let detach t ~slice =
  match find_slice t ~slice with
  | None -> None
  | Some sl ->
    t.slices <- List.filter (fun s -> s.sl_id <> slice) t.slices;
    Some sl

let drop t ~slice =
  match detach t ~slice with
  | None -> ()
  | Some _ -> t.st.dropped_slices <- t.st.dropped_slices + 1

(* Crashing loses every resident slice body — the state is gone, exactly
   like a process crash in the fault model.  The router moves the
   directory entries to orphaned; reclamation happens by lease expiry. *)
let crash t ~now =
  t.status <- Crashed { since = now };
  t.st.crashes <- t.st.crashes + 1;
  t.slices <- []

let restart t =
  (match t.status with Crashed _ -> t.st.restarts <- t.st.restarts + 1 | _ -> ());
  t.status <- Alive

let stall t ~now ~until =
  if until > now then begin
    t.status <- Stalled { since = now; until };
    t.st.stalls <- t.st.stalls + 1
  end

let rec held_in acc = function
  | [] -> acc
  | sl :: rest -> held_in (acc + Service.held sl.sl_svc) rest

let held t = held_in 0 t.slices
