(* The 256-bit state lives unboxed in 32 bytes: word [i] of the
   reference implementation's [s[4]] is at byte offset [off + 8 * i].
   Every read and write below goes through the unboxed-int64
   primitives, so stepping the generator allocates nothing; a
   [mutable : int64] record field would box on every store.  A
   generator of type [t] is a buffer of exactly one state, so offset 0
   of it needs no check; the [_at] functions step or seed a state at an
   offset the caller supplies, and check it once. *)
type t = Bytes.t

let state_bytes = 32

external get : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* The one bounds check of every [_at] entry point: after it, the four
   unchecked words at [off] lie inside [buf]. *)
let[@inline] check_offset fn buf off =
  if off < 0 || off > Bytes.length buf - state_bytes then
    invalid_arg (fn ^ ": offset outside the buffer")

let golden_gamma = 0x9E3779B97F4A7C15L

(* The SplitMix64 output function (Steele, Lea, Flood 2014), applied to
   the generator's [k]-th state [seed + k * gamma]. *)
let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* Seed the four words at [off] with the first four outputs of a
   SplitMix64 generator started at [seed]; its [k]-th state is
   [seed + k * gamma].  [off] is checked by the caller. *)
let[@inline] seed_words buf off seed =
  for i = 0 to 3 do
    set buf (off + (8 * i))
      (mix (Int64.add seed (Int64.mul (Int64.of_int (i + 1)) golden_gamma)))
  done

let create seed =
  let t = Bytes.create state_bytes in
  seed_words t 0 seed;
  t

(* One SplitMix64 round over the key-mixed base; the state is seeded
   from its output. *)
let[@inline] derived_seed base key =
  mix (Int64.add (Int64.logxor base (Int64.mul golden_gamma key)) golden_gamma)

let derive base key =
  let t = Bytes.create state_bytes in
  seed_words t 0 (derived_seed base key);
  t

let derive_at base ~key buf off =
  check_offset "Xoshiro.derive_at" buf off;
  seed_words buf off (derived_seed base (Int64.of_int key))

let[@inline] rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* Step the state at [off] (checked by the caller); returns [s1] as it
   was before the step, the word [scramble] turns into the output. *)
let[@inline] advance buf off =
  let s0 = get buf off and s1 = get buf (off + 8) in
  let s2 = get buf (off + 16) and s3 = get buf (off + 24) in
  let s2 = Int64.logxor s2 s0 in
  let s3 = Int64.logxor s3 s1 in
  set buf (off + 8) (Int64.logxor s1 s2);
  set buf off (Int64.logxor s0 s3);
  set buf (off + 16) (Int64.logxor s2 (Int64.shift_left s1 17));
  set buf (off + 24) (rotl s3 45);
  s1

let[@inline] scramble s1 = Int64.mul (rotl (Int64.mul s1 5L) 7) 9L

let next t = scramble (advance t 0)

let[@inline] next_int63_at buf off =
  check_offset "Xoshiro.next_int63_at" buf off;
  Int64.to_int (Int64.shift_right_logical (scramble (advance buf off)) 2)

let next_int63 t = next_int63_at t 0
