type t = int Atomic.t array

let create size =
  if size < 0 then invalid_arg "Atomic_tas.create: negative size";
  Array.init size (fun _ -> Atomic.make (-1))

let size t = Array.length t

let test_and_set t ~idx ~pid =
  if pid < 0 then invalid_arg "Atomic_tas.test_and_set: negative pid";
  (* Test-and-test-and-set: a probe of a taken register only reads it,
     leaving the cache line shared instead of taking it exclusive. *)
  let cell = t.(idx) in
  Atomic.get cell = -1 && Atomic.compare_and_set cell (-1) pid

let is_set t idx = Atomic.get t.(idx) <> -1

let owner t idx =
  match Atomic.get t.(idx) with
  | -1 -> None
  | pid -> Some pid

let set_count t = Array.fold_left (fun acc c -> if Atomic.get c <> -1 then acc + 1 else acc) 0 t

let to_assignment t ~processes =
  let names = Array.make processes None in
  Array.iteri
    (fun idx cell ->
      match Atomic.get cell with
      | -1 -> ()
      | pid -> if pid < processes then names.(pid) <- Some idx)
    t;
  Renaming_shm.Assignment.make ~namespace:(Array.length t) names
