let log2 x = log x /. log 2.

let lemma3_failure_bound ~n ~c ~ell =
  ignore ell;
  let logn = log2 (float_of_int n) in
  let base = 2. /. exp (c -. 1. +. (2. /. exp c)) in
  base ** logn

let lemma3_min_c ~ell = Float.max (log 2.) ((2. *. ell) +. 2.)
