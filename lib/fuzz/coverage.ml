module Memory = Renaming_sched.Memory
module Op = Renaming_sched.Op

(* FNV-1a 64-bit over a sequence of ints, same constants as
   Renaming_rng.Stream.hash_name.  Self-contained: edge identities are
   part of corpus determinism, so no polymorphic or stdlib hash. *)
let fnv_offset = 0xCBF29CE484222325L
let fnv_prime = 0x100000001B3L

let mix h x =
  let h = ref h in
  let x = ref (Int64.of_int x) in
  for _ = 0 to 7 do
    h := Int64.mul (Int64.logxor !h (Int64.logand !x 0xFFL)) fnv_prime;
    x := Int64.shift_right_logical !x 8
  done;
  !h

let region_tag = function
  | Memory.Names -> 0
  | Memory.Aux -> 1
  | Memory.Words -> 2
  | Memory.Device -> 3

(* The last access seen on a cell: who, with which operation, was it a
   write.  One slot per cell — a coverage signature, not a full
   happens-before graph. *)
type last = { l_pid : int; l_tag : int; l_write : bool }

type t = {
  cells : (int * int, last) Hashtbl.t;  (* (region tag, index) -> last access *)
  edges : (int64, unit) Hashtbl.t;
  mutable order : int64 list;  (* edge hashes in first-seen order (reversed) *)
}

let create () = { cells = Hashtbl.create 64; edges = Hashtbl.create 64; order = [] }

let edges t = List.rev t.order

(* An interleaving-coverage edge: two accesses to the same cell by
   different processes, at least one a write — the conflicting-access
   pairs whose order is the schedule's fingerprint.  Process identity is
   deliberately abstracted away (only the operation shapes enter the
   hash) so permuting pids does not inflate coverage. *)
let edge_hash ~region ~idx ~(prev : last) ~tag ~write =
  let h = fnv_offset in
  let h = mix h region in
  let h = mix h idx in
  let h = mix h prev.l_tag in
  let h = mix h (if prev.l_write then 1 else 0) in
  let h = mix h tag in
  let h = mix h (if write then 1 else 0) in
  h

let record t ~pid op (accesses : Memory.access list) =
  let tag = Op.tag op in
  List.iter
    (fun (a : Memory.access) ->
      let region = region_tag a.Memory.acc_region in
      let key = (region, a.Memory.acc_idx) in
      (match Hashtbl.find_opt t.cells key with
      | Some prev when prev.l_pid <> pid && (prev.l_write || a.Memory.acc_write) ->
        let h = edge_hash ~region ~idx:a.Memory.acc_idx ~prev ~tag ~write:a.Memory.acc_write in
        if not (Hashtbl.mem t.edges h) then begin
          Hashtbl.add t.edges h ();
          t.order <- h :: t.order
        end
      | _ -> ());
      Hashtbl.replace t.cells key { l_pid = pid; l_tag = tag; l_write = a.Memory.acc_write })
    accesses

let attach t memory =
  Memory.set_access_logger memory (Some (fun ~pid op accesses -> record t ~pid op accesses))

let detach memory = Memory.set_access_logger memory None
