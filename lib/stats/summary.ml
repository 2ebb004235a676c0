(* The moments live in a [Float.Array] and the samples in a growable
   [Float.Array], so recording one stores unboxed floats and allocates
   nothing once the buffer has grown.  (A record that mixes an [int]
   with mutable [float] fields boxes every float it stores, and a
   polymorphic vector boxes every sample passed to it.) *)
type t = {
  mutable count : int;
  moments : Float.Array.t;  (* mean, min, max *)
  mutable samples : Float.Array.t;  (* the first [count] are used *)
}

let i_mean = 0
let i_min = 1
let i_max = 2

let create () =
  let moments = Float.Array.make 3 0. in
  Float.Array.set moments i_min infinity;
  Float.Array.set moments i_max neg_infinity;
  { count = 0; moments; samples = Float.Array.create 0 }

let grow t =
  let cap = Float.Array.length t.samples in
  let samples = Float.Array.create (if cap = 0 then 16 else cap * 2) in
  Float.Array.blit t.samples 0 samples 0 t.count;
  t.samples <- samples

(* The running mean's update.  Inlined into [add] and [add_int], so
   [x] is never boxed. *)
let[@inline] record t x =
  if t.count = Float.Array.length t.samples then grow t;
  Float.Array.set t.samples t.count x;
  t.count <- t.count + 1;
  let m = t.moments in
  let mean = Float.Array.get m i_mean in
  Float.Array.set m i_mean (mean +. ((x -. mean) /. float_of_int t.count));
  if x < Float.Array.get m i_min then Float.Array.set m i_min x;
  if x > Float.Array.get m i_max then Float.Array.set m i_max x

let add t x = record t x
let add_int t x = record t (float_of_int x)

let count t = t.count
let mean t = Float.Array.get t.moments i_mean

let min t = Float.Array.get t.moments i_min
let max t = Float.Array.get t.moments i_max
let samples t = Array.init t.count (Float.Array.get t.samples)

let percentile t p =
  if t.count = 0 then invalid_arg "Summary.percentile: empty";
  if p < 0. || p > 100. then invalid_arg "Summary.percentile: p out of [0,100]";
  let sorted = samples t in
  Array.sort compare sorted;
  let n = Array.length sorted in
  if n = 1 then sorted.(0)
  else begin
    let rank = p /. 100. *. float_of_int (n - 1) in
    let lo = int_of_float (floor rank) in
    let hi = Stdlib.min (lo + 1) (n - 1) in
    let frac = rank -. float_of_int lo in
    (sorted.(lo) *. (1. -. frac)) +. (sorted.(hi) *. frac)
  end

let median t = percentile t 50.
