let uniform_int rng bound =
  if bound <= 0 then invalid_arg "Sample.uniform_int: bound must be positive";
  if bound land (bound - 1) = 0 then
    (* A power of two divides 2^62, so the rejection below would accept
       every draw and [x mod bound] is [x land (bound - 1)]: the same
       result, without the divisions. *)
    Xoshiro.next_int63 rng land (bound - 1)
  else begin
    (* Rejection sampling to avoid modulo bias.  [next_int63] is uniform
       on [0, max_int] (max_int = 2^62 - 1 on 64-bit), so we accept the
       largest prefix that is a whole multiple of [bound].  2^62 itself
       is not representable; computing [2^62 mod bound] as
       [((max_int mod bound) + 1) mod bound] avoids the overflow. *)
    let n_mod = ((max_int mod bound) + 1) mod bound in
    let accept_max = max_int - n_mod in
    let x = ref (Xoshiro.next_int63 rng) in
    while !x > accept_max do
      x := Xoshiro.next_int63 rng
    done;
    !x mod bound
  end

let uniform_in_range rng ~lo ~hi =
  if hi < lo then invalid_arg "Sample.uniform_in_range: hi < lo";
  lo + uniform_int rng (hi - lo + 1)

(* 53 random mantissa bits, the conventional doubles construction: the
   top 53 bits of [next], i.e. [next_int63 lsr 9].  Inlined so that
   [bernoulli] compares the float unboxed. *)
let[@inline] float_unit rng = float_of_int (Xoshiro.next_int63 rng lsr 9) *. 0x1.0p-53

let bernoulli rng p = float_unit rng < p

(* A Fisher–Yates shuffle of the identity. *)
let permutation rng n =
  let arr = Array.init n (fun i -> i) in
  for i = n - 1 downto 1 do
    let j = uniform_int rng (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done;
  arr
