type config = { namespace : int; one_shot : bool }

type session = { mutable invoked : bool; mutable crashed : bool; mutable holds : int list }

type t = {
  cfg : config;
  holders : (int, int) Hashtbl.t;  (* name -> session *)
  sessions : (int, session) Hashtbl.t;
}

let create cfg =
  if cfg.namespace <= 0 then invalid_arg "Spec.create: namespace must be positive";
  { cfg; holders = Hashtbl.create 64; sessions = Hashtbl.create 64 }

type verdict = [ `Step | `Stutter | `Reject of string ]

let session t id =
  match Hashtbl.find_opt t.sessions id with
  | Some s -> s
  | None ->
      let s = { invoked = false; crashed = false; holds = [] } in
      Hashtbl.replace t.sessions id s;
      s

let holder t ~name = Hashtbl.find_opt t.holders name

let held t = Hashtbl.length t.holders

let in_range t name = name >= 0 && name < t.cfg.namespace

let apply t (ev : Obs_event.t) : verdict =
  match ev with
  | Invoked { session = id } ->
      let s = session t id in
      if s.crashed then `Reject "invoke-while-crashed"
      else if s.invoked then `Stutter
      else (
        s.invoked <- true;
        `Step)
  | Granted { session = id; name } ->
      if not (in_range t name) then `Reject "name-out-of-range"
      else
        let s = session t id in
        if s.crashed then `Reject "grant-while-crashed"
        else (
          match holder t ~name with
          | Some h when h = id ->
              (* Re-announcing a grant the session already holds:
                 recovery re-discovery, handoff adoption, retransmit. *)
              `Stutter
          | Some _ -> `Reject "name-held"
          | None ->
              if t.cfg.one_shot && not s.invoked then `Reject "grant-without-invoke"
              else if t.cfg.one_shot && s.holds <> [] then `Reject "double-hold"
              else (
                Hashtbl.replace t.holders name id;
                s.holds <- name :: s.holds;
                `Step))
  | Claimed { session = id; name } ->
      if not (in_range t name) then `Reject "name-out-of-range"
      else (
        match holder t ~name with
        | Some h when h = id -> `Stutter
        | Some _ | None -> `Reject "claim-unbacked")
  | Released { session = id; name } -> (
      match holder t ~name with
      | Some h when h = id ->
          Hashtbl.remove t.holders name;
          let s = session t id in
          s.holds <- List.filter (fun n -> n <> name) s.holds;
          `Step
      | Some _ | None -> `Reject "release-not-holder")
  | Reclaimed { session = id; name } -> (
      match holder t ~name with
      | Some h when h = id ->
          Hashtbl.remove t.holders name;
          let s = session t id in
          s.holds <- List.filter (fun n -> n <> name) s.holds;
          (* The reclaimed party must ask again before being granted. *)
          if t.cfg.one_shot then s.invoked <- false;
          `Step
      | Some _ | None -> `Reject "reclaim-not-holder")
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

let snapshot t =
  let buf = Buffer.create 128 in
  let holders =
    Hashtbl.fold (fun name s acc -> (name, s) :: acc) t.holders []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  Buffer.add_string buf "holders:";
  List.iter (fun (name, s) -> Buffer.add_string buf (Printf.sprintf " %d->s%d" name s)) holders;
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
