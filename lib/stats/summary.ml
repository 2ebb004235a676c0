type t = {
  mutable count : int;
  mutable mean : float;
  mutable m2 : float;
  mutable min : float;
  mutable max : float;
  samples : float Vec.t;
}

let create () =
  { count = 0; mean = 0.; m2 = 0.; min = infinity; max = neg_infinity; samples = Vec.create () }

let add t x =
  t.count <- t.count + 1;
  let delta = x -. t.mean in
  t.mean <- t.mean +. (delta /. float_of_int t.count);
  t.m2 <- t.m2 +. (delta *. (x -. t.mean));
  if x < t.min then t.min <- x;
  if x > t.max then t.max <- x;
  Vec.add_last t.samples x

let add_int t x = add t (float_of_int x)

let count t = t.count
let mean t = t.mean
let variance t = if t.count < 2 then 0. else t.m2 /. float_of_int (t.count - 1)
let min t = t.min
let max t = t.max

let samples t = Vec.to_array t.samples

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

let merge a b =
  let t = create () in
  Vec.iter (add t) a.samples;
  Vec.iter (add t) b.samples;
  t
