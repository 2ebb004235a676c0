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

type 'r t = { window : float; table : 'r entry Clients.t; st : stats }

let create ?(window = infinity) () =
  if window <= 0. then invalid_arg "Dedup.create: window must be > 0";
  {
    window;
    table = Clients.create 64;
    st = { fresh = 0; replays = 0; stale = 0; evictions = 0 };
  }

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

let sweep t ~now =
  if t.window = infinity then 0
  else begin
    let doomed =
      Clients.fold
        (fun client e acc -> if now -. e.e_touched > t.window then client :: acc else acc)
        t.table []
    in
    (* Sort for deterministic eviction order (Hashtbl.fold order is
       unspecified); the count is what callers observe but determinism
       is a repo-wide invariant. *)
    let doomed = List.sort compare doomed in
    List.iter (Clients.remove t.table) doomed;
    let n = List.length doomed in
    t.st.evictions <- t.st.evictions + n;
    n
  end

let add_stats ~into (s : stats) =
  into.fresh <- into.fresh + s.fresh;
  into.replays <- into.replays + s.replays;
  into.stale <- into.stale + s.stale;
  into.evictions <- into.evictions + s.evictions

let stats t = t.st
