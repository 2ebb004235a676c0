type t = { names : int array; namespace : int }

let make ~namespace names =
  if namespace < 0 then invalid_arg "Assignment.make: negative namespace";
  { names; namespace }

let named_count t =
  Array.fold_left (fun acc name -> if name = -1 then acc else acc + 1) 0 t.names

let unnamed t =
  let acc = ref [] in
  for pid = Array.length t.names - 1 downto 0 do
    if t.names.(pid) = -1 then acc := pid :: !acc
  done;
  !acc

(* Names seen so far live in a flat array indexed by name, one word per
   name below [min namespace (4 * processes)]: the whole namespace
   unless it has more than four names per process.  Other in-range
   names (a namespace far larger than the process count) go to a small
   table.  [fresh name] records [name] and says whether it was unseen. *)
let is_valid t =
  let seen = Array.make (max 0 (min t.namespace (4 * Array.length t.names))) false in
  let rest = Hashtbl.create 16 in
  let fresh name =
    if name < Array.length seen then begin
      let unseen = not seen.(name) in
      seen.(name) <- true;
      unseen
    end
    else begin
      let unseen = not (Hashtbl.mem rest name) in
      Hashtbl.replace rest name ();
      unseen
    end
  in
  Array.for_all (fun name -> name = -1 || (name >= 0 && name < t.namespace && fresh name)) t.names

let is_complete t = is_valid t && named_count t = Array.length t.names
