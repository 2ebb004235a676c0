(* The normalized weight of each rank. *)
type t = float array

let create ?(s = 1.0) ~n () =
  if n < 1 then invalid_arg "Zipf.create: n must be >= 1";
  if s < 0. then invalid_arg "Zipf.create: s must be >= 0";
  let weights = Array.init n (fun k -> 1. /. (float_of_int (k + 1) ** s)) in
  let total = Array.fold_left ( +. ) 0. weights in
  Array.iteri (fun k w -> weights.(k) <- w /. total) weights;
  weights

let relative_pressure t k =
  if k < 0 || k >= Array.length t then invalid_arg "Zipf.relative_pressure: rank out of range";
  t.(k) /. t.(Array.length t - 1)
