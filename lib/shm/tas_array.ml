(* -1 encodes a free register; otherwise the winner's pid.  A flat int
   array keeps million-register simulations cache-friendly. *)
type t = int array

let create size =
  if size < 0 then invalid_arg "Tas_array.create: negative size";
  Array.make size (-1)

let size = Array.length

let check t idx =
  if idx < 0 || idx >= Array.length t then invalid_arg "Tas_array: index out of range"

let test_and_set t ~idx ~pid =
  check t idx;
  if pid < 0 then invalid_arg "Tas_array.test_and_set: negative pid";
  if t.(idx) = -1 then begin
    t.(idx) <- pid;
    true
  end
  else false

let is_set t idx =
  check t idx;
  t.(idx) <> -1

let owner t idx =
  check t idx;
  match t.(idx) with
  | -1 -> None
  | pid -> Some pid

let release t ~idx ~pid =
  check t idx;
  if t.(idx) = pid then begin
    t.(idx) <- -1;
    true
  end
  else false
