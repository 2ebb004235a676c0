type config = { namespace : int; one_shot : bool }

type session = { mutable invoked : bool; mutable crashed : bool; mutable holds : int list }

type t = {
  cfg : config;
  holders : int array;  (* name -> session, -1 when free *)
  mutable n_held : int;
  sessions : (int, session) Hashtbl.t;
  clock : Float.Array.t;  (* one cell: the latest reading; a float field would box each write *)
  expiry : Float.Array.t;  (* name -> its lease's expiry while held; [neg_infinity] when untimed *)
  slice_of : int array;  (* name -> the slice it was leased from while held, -1 when untimed *)
  slice_held : int array;  (* slice -> names held *)
}

let create cfg =
  if cfg.namespace <= 0 then invalid_arg "Spec.create: namespace must be positive";
  let n = cfg.namespace in
  {
    cfg;
    holders = Array.make n (-1);
    n_held = 0;
    sessions = Hashtbl.create 64;
    clock = Float.Array.make 1 neg_infinity;
    expiry = Float.Array.make n neg_infinity;
    slice_of = Array.make n (-1);
    slice_held = Array.make n 0;
  }

type verdict = [ `Step | `Stutter | `Reject of string ]

let session t id =
  match Hashtbl.find_opt t.sessions id with
  | Some s -> s
  | None ->
      let s = { invoked = false; crashed = false; holds = [] } in
      Hashtbl.replace t.sessions id s;
      s

let in_range t name = name >= 0 && name < t.cfg.namespace

let holder t ~name = if in_range t name && t.holders.(name) >= 0 then Some t.holders.(name) else None

let held t = t.n_held

let holds t ~session ~name = in_range t name && t.holders.(name) = session

let clock t = Float.Array.get t.clock 0

let free t ~session:id ~name =
  t.holders.(name) <- -1;
  t.n_held <- t.n_held - 1;
  Float.Array.set t.expiry name neg_infinity;
  let k = t.slice_of.(name) in
  if k >= 0 then begin
    t.slice_held.(k) <- t.slice_held.(k) - 1;
    t.slice_of.(name) <- -1
  end;
  let s = session t id in
  s.holds <- List.filter (fun n -> n <> name) s.holds;
  (* Lease mode mints a session per attempt, so a record that holds
     nothing is forgotten; otherwise the table grows with the run. *)
  if (not t.cfg.one_shot) && s.holds = [] && not s.crashed then Hashtbl.remove t.sessions id

let grant t ~session:id ~name =
  if not (in_range t name) then `Reject "name-out-of-range"
  else
    let s = session t id in
    if s.crashed then `Reject "grant-while-crashed"
    else if t.holders.(name) = id then
      (* Re-announcing a grant the session already holds: recovery
         re-discovery, handoff adoption, retransmit. *)
      `Stutter
    else if t.holders.(name) >= 0 then `Reject "name-held"
    else if t.cfg.one_shot && not s.invoked then `Reject "grant-without-invoke"
    else if t.cfg.one_shot && s.holds <> [] then `Reject "double-hold"
    else begin
      t.holders.(name) <- id;
      t.n_held <- t.n_held + 1;
      s.holds <- name :: s.holds;
      `Step
    end

let claim t ~session ~name =
  if not (in_range t name) then `Reject "name-out-of-range"
  else if t.holders.(name) = session then `Stutter
  else `Reject "claim-unbacked"

(* A reclaim or an absorb takes [name] from its holder, which is enabled
   only once the holder's lease has expired by [now]. *)
let take t ~now ~session:id ~name ~early =
  if not (holds t ~session:id ~name) then `Reject "reclaim-not-holder"
  else if now < Float.Array.get t.expiry name then `Reject early
  else begin
    free t ~session:id ~name;
    (* The reclaimed party must ask again before being granted. *)
    if t.cfg.one_shot then (session t id).invoked <- false;
    `Step
  end

(* The one event match.  [now] only enables a reclaim; [apply] judges at
   the clock's reading, [at] at the event's own time.  Inlined into
   both, so [apply]'s reading of the clock is never boxed. *)
let[@inline] step t ~now (ev : Obs_event.t) : verdict =
  match ev with
  | Invoked { session = id } ->
      let s = session t id in
      if s.crashed then `Reject "invoke-while-crashed"
      else if s.invoked then `Stutter
      else (
        s.invoked <- true;
        `Step)
  | Granted { session; name } -> grant t ~session ~name
  | Claimed { session; name } -> claim t ~session ~name
  | Released { session; name } ->
      if holds t ~session ~name then (
        free t ~session ~name;
        `Step)
      else `Reject "release-not-holder"
  | Reclaimed { session; name } -> take t ~now ~session ~name ~early:"early-reclaim"
  | Crashed { session = id } ->
      let s = session t id in
      if s.crashed then `Reject "double-crash"
      else (
        s.crashed <- true;
        (* One-shot mode: the crash abandons the session's live claims.
           The names stay consumed ([holders] keeps them — the registers
           are still physically set, so granting one to anyone else
           remains inexplicable), but the recovered re-run competes
           afresh: it may win a new name without tripping [double-hold],
           and re-discovering its old one is a stutter. *)
        if t.cfg.one_shot then s.holds <- [];
        `Step)
  | Recovered { session = id } ->
      let s = session t id in
      if not s.crashed then `Reject "recover-of-live"
      else (
        s.crashed <- false;
        `Step)
  | Shed { session = id } ->
      if t.cfg.one_shot then (
        let s = session t id in
        s.invoked <- false;
        `Step)
      else `Stutter

let apply t ev = step t ~now:(clock t) ev

(* {2 The lease clock} *)

let time_regression = `Reject "time-regression"

(* An accepted timed event moves the clock to [now]; a rejected one
   leaves the whole state, the clock included, unchanged. *)
let tick t ~now (v : verdict) =
  (match v with `Reject _ -> () | `Step | `Stutter -> Float.Array.set t.clock 0 now);
  v

let at t ~now ev = if now < clock t then time_regression else tick t ~now (step t ~now ev)

let lease t ~now ~session ~name ~expires ~slice ~capacity =
  if now < clock t then time_regression
  else if in_range t name && t.holders.(name) < 0 && t.slice_held.(slice) >= capacity then
    `Reject "over-capacity"
  else
    match grant t ~session ~name with
    | `Step ->
        Float.Array.set t.expiry name expires;
        t.slice_of.(name) <- slice;
        t.slice_held.(slice) <- t.slice_held.(slice) + 1;
        tick t ~now `Step
    | v -> tick t ~now v

let renew t ~now ~session ~name ~expires =
  if now < clock t then time_regression
  else
    match claim t ~session ~name with
    | `Reject _ as r -> r
    | `Step | `Stutter ->
        let until = Float.Array.get t.expiry name in
        if expires < until then `Reject "expiry-regression"
        else if expires = until then tick t ~now `Stutter
        else begin
          Float.Array.set t.expiry name expires;
          tick t ~now `Step
        end

let use t ~now ~session ~name = if now < clock t then time_regression else tick t ~now (claim t ~session ~name)

let absorb t ~now ~session ~name =
  if now < clock t then time_regression else tick t ~now (take t ~now ~session ~name ~early:"early-absorb")

let snapshot t =
  let buf = Buffer.create 128 in
  if clock t > neg_infinity then Buffer.add_string buf (Printf.sprintf "clock: %g\n" (clock t));
  Buffer.add_string buf "holders:";
  Array.iteri
    (fun name s ->
      if s >= 0 then begin
        Buffer.add_string buf (Printf.sprintf " %d->s%d" name s);
        let until = Float.Array.get t.expiry name in
        if until > neg_infinity then Buffer.add_string buf (Printf.sprintf "@%g" until)
      end)
    t.holders;
  let sessions =
    (* A default record (never invoked, live, holding nothing) is
       indistinguishable from an absent one; lookups create them
       lazily, so rendering them would make rejected events look like
       state changes. *)
    Hashtbl.fold
      (fun id s acc -> if s.invoked || s.crashed || s.holds <> [] then (id, s) :: acc else acc)
      t.sessions []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  Buffer.add_string buf "\nsessions:";
  List.iter
    (fun (id, s) ->
      Buffer.add_string buf
        (Printf.sprintf " s%d[%s%s holds=%s]" id
           (if s.invoked then "i" else "-")
           (if s.crashed then "c" else "-")
           (String.concat "," (List.map string_of_int (List.sort compare s.holds)))))
    sessions;
  Buffer.contents buf
