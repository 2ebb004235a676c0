type t = { names : int array; namespace : int }

let make ~namespace names =
  if namespace < 0 then invalid_arg "Assignment.make: negative namespace";
  { names; namespace }

let of_names ~namespace tas ~processes =
  let names = Array.make processes (-1) in
  Tas_array.iter_set tas ~f:(fun ~idx ~pid -> if pid < processes then names.(pid) <- idx);
  make ~namespace names

let named_count t =
  Array.fold_left (fun acc name -> if name = -1 then acc else acc + 1) 0 t.names

let unnamed t =
  let acc = ref [] in
  for pid = Array.length t.names - 1 downto 0 do
    if t.names.(pid) = -1 then acc := pid :: !acc
  done;
  !acc

type violation =
  | Out_of_range of { pid : int; name : int }
  | Duplicate of { name : int; pid_a : int; pid_b : int }

(* First holders live in a flat array indexed by name, one word per
   name below [min namespace (4 * processes)]: the whole namespace
   unless it has more than four names per process.  Other names (out of
   range, or in a namespace far larger than the process count) go to a
   small table.  [first_holder] records [pid] for a name not seen
   before and returns -1; otherwise it returns the first holder. *)
let violations t =
  let flat = Array.make (max 0 (min t.namespace (4 * Array.length t.names))) (-1) in
  let rest = Hashtbl.create 16 in
  let first_holder name pid =
    if name >= 0 && name < Array.length flat then begin
      let holder = flat.(name) in
      if holder < 0 then flat.(name) <- pid;
      holder
    end
    else
      match Hashtbl.find_opt rest name with
      | Some holder -> holder
      | None ->
        Hashtbl.add rest name pid;
        -1
  in
  let acc = ref [] in
  Array.iteri
    (fun pid name ->
      if name <> -1 then begin
        if name < 0 || name >= t.namespace then acc := Out_of_range { pid; name } :: !acc;
        let pid_a = first_holder name pid in
        if pid_a >= 0 then acc := Duplicate { name; pid_a; pid_b = pid } :: !acc
      end)
    t.names;
  List.rev !acc

let is_valid t = violations t = []

let is_complete t = is_valid t && named_count t = Array.length t.names
