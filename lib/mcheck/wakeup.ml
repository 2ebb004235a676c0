module Op = Renaming_sched.Op

(* Ordered, append-only trees of *wakeup sequences*: each branch is a
   step event (pid × operation) with a subtree of continuations.  The
   order of branches is insertion order and is never rearranged — the
   explorer consumes branches left to right, so insertion order is
   exploration order and the no-revisit guarantee rests on the
   insertion rules below. *)

type t = { mutable bs : branch list }
and branch = { b_pid : int; b_op : Op.t; b_sub : t }

type status = Covered | Inserted

let create () = { bs = [] }
let is_empty t = t.bs = []
let branches t = t.bs

let pop t =
  match t.bs with
  | [] -> None
  | b :: rest ->
    t.bs <- rest;
    Some b

(* The *weak initials* of a sequence [v]: events that could equivalently
   execute first — the first event of a pid, independent with everything
   before it in [v]. *)
let weak_initials ?(dependent = Races.dependent) v =
  let rec go prefix acc = function
    | [] -> List.rev acc
    | ((p, o) as e) :: rest ->
      let first = not (List.exists (fun (q, _) -> q = p) prefix) in
      let indep = List.for_all (fun (_, o') -> not (dependent o' o)) prefix in
      go (e :: prefix) (if first && indep then e :: acc else acc) rest
  in
  go [] [] v

let weak_initial_mem ?dependent v ~pid ~op =
  List.exists (fun (p, o) -> p = pid && o = op) (weak_initials ?dependent v)

let rec remove_first pid = function
  | [] -> []
  | (p, _) :: rest when p = pid -> rest
  | e :: rest -> e :: remove_first pid rest

let rec chain = function
  | [] -> invalid_arg "Wakeup.chain: empty sequence"
  | [ (p, o) ] -> { b_pid = p; b_op = o; b_sub = create () }
  | (p, o) :: rest -> { b_pid = p; b_op = o; b_sub = { bs = [ chain rest ] } }

(* Insert a wakeup sequence.  Recurse into the leftmost branch whose
   key is a weak initial of the remainder (executing that branch first
   reaches an equivalent state), dropping the matched event; an
   exhausted sequence or an existing leaf means some already-scheduled
   sequence reaches an equivalent state first — covered, nothing to do.
   No match anywhere: append the whole remainder as a new rightmost
   branch, preserving the exploration order of existing branches. *)
let rec insert ?dependent t v =
  match v with
  | [] -> Covered
  | _ -> (
    let wi = weak_initials ?dependent v in
    match
      List.find_opt (fun b -> List.exists (fun (p, o) -> p = b.b_pid && o = b.b_op) wi) t.bs
    with
    | Some b ->
      if is_empty b.b_sub then Covered else insert ?dependent b.b_sub (remove_first b.b_pid v)
    | None ->
      t.bs <- t.bs @ [ chain v ];
      Inserted)

let rec size t = List.fold_left (fun acc b -> acc + 1 + size b.b_sub) 0 t.bs
