let log2_floor n =
  if n < 1 then invalid_arg "Mathx.log2_floor: n must be >= 1";
  let rec go acc n = if n = 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

let log2_ceil n =
  if n < 1 then invalid_arg "Mathx.log2_ceil: n must be >= 1";
  let f = log2_floor n in
  if 1 lsl f = n then f else f + 1

let log2f x = log x /. log 2.

let loglog2_ceil n =
  if n < 2 then invalid_arg "Mathx.loglog2_ceil: n must be >= 2";
  max 1 (log2_ceil (max 2 (log2_ceil n)))

let logloglog2_ceil n = max 1 (log2_ceil (max 2 (loglog2_ceil n)))

let pow_int b e =
  if e < 0 then invalid_arg "Mathx.pow_int: negative exponent";
  let rec go acc b e = if e = 0 then acc else go (if e land 1 = 1 then acc * b else acc) (b * b) (e lsr 1) in
  go 1 b e
