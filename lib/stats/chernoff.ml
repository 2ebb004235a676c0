let upper ~mu ~delta =
  if delta < 0. then invalid_arg "Chernoff.upper: negative delta";
  if delta <= 1. then exp (-.mu *. delta *. delta /. 3.) else exp (-.mu *. delta /. 3.)

let empty_bins_expected ~balls ~bins =
  if bins <= 0 then invalid_arg "Chernoff.empty_bins_expected: bins must be positive";
  let b = float_of_int bins in
  b *. ((1. -. (1. /. b)) ** float_of_int balls)

let log2 x = log x /. log 2.

let lemma3_failure_bound ~n ~c ~ell =
  ignore ell;
  let logn = log2 (float_of_int n) in
  let base = 2. /. exp (c -. 1. +. (2. /. exp c)) in
  base ** logn

let lemma3_min_c ~ell = Float.max (log 2.) ((2. *. ell) +. 2.)
