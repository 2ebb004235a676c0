(* Register [i] is bit [i land 31] of word [i lsr 5]; the last word's
   bits from [size] up are spare and never set. *)
type t = { size : int; words : int Atomic.t array }

let create size =
  if size < 0 then invalid_arg "Atomic_tas.create: negative size";
  { size; words = Array.init ((size + 31) lsr 5) (fun _ -> Atomic.make 0) }

let size t = t.size

let out_of_range fn t idx =
  invalid_arg (Printf.sprintf "Atomic_tas.%s: register %d outside [0, %d)" fn idx t.size)

(* Test-and-test-and-set: a taken register is only read, so its line
   stays shared.  Top-level, with the word and bit as arguments, so a
   TAS allocates no closure. *)
let rec set_bit word bit =
  let v = Atomic.get word in
  v land bit = 0 && (Atomic.compare_and_set word v (v lor bit) || set_bit word bit)

let test_and_set t ~idx =
  if idx < 0 || idx >= t.size then out_of_range "test_and_set" t idx;
  set_bit t.words.(idx lsr 5) (1 lsl (idx land 31))

let is_set t idx =
  if idx < 0 || idx >= t.size then out_of_range "is_set" t idx;
  Atomic.get t.words.(idx lsr 5) land (1 lsl (idx land 31)) <> 0

let set_count t =
  Array.fold_left (fun acc w -> acc + Renaming_bitops.Word.popcount (Atomic.get w)) 0 t.words
