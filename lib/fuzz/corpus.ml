module Directed = Renaming_sched.Directed
module Sample = Renaming_rng.Sample

type entry = {
  en_prefix : Directed.choice list;
  en_new_edges : int;  (* edges this entry contributed when admitted *)
  en_iteration : int;  (* campaign iteration that found it *)
}

type t = {
  seen : (int64, unit) Hashtbl.t;  (* global edge set across all executions *)
  mutable entries : entry array;
  mutable count : int;
}

let create () = { seen = Hashtbl.create 256; entries = [||]; count = 0 }

let size t = t.count

let seen_edges t = Hashtbl.length t.seen

let push t entry =
  if t.count = Array.length t.entries then begin
    let cap = max 8 (2 * Array.length t.entries) in
    let grown = Array.make cap entry in
    Array.blit t.entries 0 grown 0 t.count;
    t.entries <- grown
  end;
  t.entries.(t.count) <- entry;
  t.count <- t.count + 1

(* Admit [prefix] iff the execution's edge set contains edges never seen
   by any earlier execution.  Returns the number of new edges (0 = not
   admitted).  Deduplication is against everything *seen*, not just
   admitted entries, so re-running an old schedule never re-qualifies. *)
let observe t ~iteration ~prefix edges =
  let fresh = List.filter (fun h -> not (Hashtbl.mem t.seen h)) edges in
  List.iter (fun h -> Hashtbl.replace t.seen h ()) fresh;
  let n = List.length fresh in
  if n > 0 then push t { en_prefix = prefix; en_new_edges = n; en_iteration = iteration };
  n

let pick t rng =
  if t.count = 0 then []
  else t.entries.(Sample.uniform_int rng t.count).en_prefix

(* --- mutation --- *)

let insert_at lst i x =
  let rec go j = function
    | rest when j = i -> x :: rest
    | [] -> [ x ]
    | y :: rest -> y :: go (j + 1) rest
  in
  go 0 lst

let swap_adjacent lst i =
  let arr = Array.of_list lst in
  if i + 1 < Array.length arr then begin
    let tmp = arr.(i) in
    arr.(i) <- arr.(i + 1);
    arr.(i + 1) <- tmp
  end;
  Array.to_list arr

let truncate lst i = List.filteri (fun j _ -> j < i) lst

(* One structural edit.  Infeasible results are fine: the directed
   executor is run in permissive mode downstream, which drops choices
   whose pid is not in the required state. *)
let mutate_once ~rng ~n ~allow_faults ~allow_crashes prefix =
  let len = List.length prefix in
  let pos bound = if bound <= 0 then 0 else Sample.uniform_int rng (bound + 1) in
  let pid () = Sample.uniform_int rng n in
  let n_kinds = 3 + (if allow_crashes then 1 else 0) + if allow_faults then 1 else 0 in
  match Sample.uniform_int rng n_kinds with
  | 0 -> if len = 0 then [ Directed.Step (pid ()) ] else truncate prefix (Sample.uniform_int rng len)
  | 1 -> if len < 2 then insert_at prefix (pos len) (Directed.Step (pid ())) else swap_adjacent prefix (Sample.uniform_int rng (len - 1))
  | 2 -> insert_at prefix (pos len) (Directed.Step (pid ()))
  | 3 when allow_crashes ->
    let p = pid () in
    let at = pos len in
    let with_crash = insert_at prefix at (Directed.Crash p) in
    (* Recover somewhere after the crash, so the default tail is not
       forced to leave the process dead. *)
    let at' = at + 1 + Sample.uniform_int rng (List.length with_crash - at) in
    insert_at with_crash at' (Directed.Recover p)
  | _ -> insert_at prefix (pos len) (Directed.Fault (pid ()))

let mutate ~rng ~n ~allow_faults ~allow_crashes prefix =
  let edits = 1 + Sample.uniform_int rng 3 in
  let rec go k acc =
    if k = 0 then acc else go (k - 1) (mutate_once ~rng ~n ~allow_faults ~allow_crashes acc)
  in
  go edits prefix
