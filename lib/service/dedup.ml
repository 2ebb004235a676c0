type stats = {
  mutable fresh : int;
  mutable replays : int;
  mutable stale : int;
  mutable evictions : int;
}

(* Entries are made only by [record], so every entry holds a reply. *)
type 'r entry = { mutable e_seq : int; mutable e_reply : 'r; mutable e_touched : float }

(* Keyed by client id: small non-negative ints, so the id is its own
   hash and lookups compare ints directly rather than through the
   polymorphic hash and compare. *)
module Clients = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash x = x land max_int
end)

type 'r t = { table : 'r entry Clients.t; st : stats }

let create st = { table = Clients.create 64; st }

type 'r verdict = Fresh | Replay of 'r | Stale

(* [find] rather than [find_opt]: a hit builds no [Some]. *)
let admit t ~client ~seq ~now =
  match Clients.find t.table client with
  | exception Not_found ->
    t.st.fresh <- t.st.fresh + 1;
    Fresh
  | e ->
    e.e_touched <- now;
    if seq > e.e_seq then begin
      t.st.fresh <- t.st.fresh + 1;
      Fresh
    end
    else if seq = e.e_seq then begin
      t.st.replays <- t.st.replays + 1;
      Replay e.e_reply
    end
    else begin
      t.st.stale <- t.st.stale + 1;
      Stale
    end

let record t ~client ~seq ~now reply =
  match Clients.find t.table client with
  | exception Not_found ->
    Clients.replace t.table client { e_seq = seq; e_reply = reply; e_touched = now }
  | e ->
    (* A stale execution result never regresses the window. *)
    if seq >= e.e_seq then begin
      e.e_seq <- seq;
      e.e_reply <- reply;
      e.e_touched <- now
    end

let sweep t ~window ~now =
  let n = ref 0 in
  Clients.filter_map_inplace
    (fun _ e ->
      if now -. e.e_touched > window then begin
        incr n;
        None
      end
      else Some e)
    t.table;
  t.st.evictions <- t.st.evictions + !n;
  !n
