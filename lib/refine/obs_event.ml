type t =
  | Invoked of { session : int }
  | Granted of { session : int; name : int }
  | Claimed of { session : int; name : int }
  | Released of { session : int; name : int }
  | Crashed of { session : int }
  | Recovered of { session : int }
  | Reclaimed of { session : int; name : int }
  | Shed of { session : int }

let pp ppf = function
  | Invoked { session } -> Format.fprintf ppf "invoked s%d" session
  | Granted { session; name } -> Format.fprintf ppf "granted s%d name %d" session name
  | Claimed { session; name } -> Format.fprintf ppf "claimed s%d name %d" session name
  | Released { session; name } -> Format.fprintf ppf "released s%d name %d" session name
  | Crashed { session } -> Format.fprintf ppf "crashed s%d" session
  | Recovered { session } -> Format.fprintf ppf "recovered s%d" session
  | Reclaimed { session; name } -> Format.fprintf ppf "reclaimed s%d name %d" session name
  | Shed { session } -> Format.fprintf ppf "shed s%d" session


(* Tag 0 is reserved: a zero-initialised announce register must never
   decode to an event. *)
let tag_of = function
  | Invoked _ -> 1
  | Granted _ -> 2
  | Claimed _ -> 3
  | Released _ -> 4
  | Crashed _ -> 5
  | Recovered _ -> 6
  | Reclaimed _ -> 7
  | Shed _ -> 8

let session_of = function
  | Invoked { session }
  | Granted { session; _ }
  | Claimed { session; _ }
  | Released { session; _ }
  | Crashed { session }
  | Recovered { session }
  | Reclaimed { session; _ }
  | Shed { session } ->
      session

let name_of = function
  | Granted { name; _ } | Claimed { name; _ } | Released { name; _ } | Reclaimed { name; _ } ->
      name
  | Invoked _ | Crashed _ | Recovered _ | Shed _ -> 0

let encode ev =
  let session = session_of ev and name = name_of ev in
  if session < 0 || session > 0xfff then invalid_arg "Obs_event.encode: session out of range";
  if name < 0 then invalid_arg "Obs_event.encode: negative name";
  tag_of ev lor (session lsl 4) lor (name lsl 16)

let decode v =
  if v <= 0 then None
  else
    let tag = v land 0xf in
    let session = (v lsr 4) land 0xfff in
    let name = v lsr 16 in
    match tag with
    | 1 -> Some (Invoked { session })
    | 2 -> Some (Granted { session; name })
    | 3 -> Some (Claimed { session; name })
    | 4 -> Some (Released { session; name })
    | 5 -> Some (Crashed { session })
    | 6 -> Some (Recovered { session })
    | 7 -> Some (Reclaimed { session; name })
    | 8 -> Some (Shed { session })
    | _ -> None
