module Hist = Renaming_obs.Hist

type t = Hist.t

let sub_buckets = 16
let first_octave = 4 (* 2^4 = 16 ns *)
let last_octave = 34

let bounds =
  let octave k =
    let width = 1 lsl (k - first_octave) in
    List.init sub_buckets (fun j -> (1 lsl k) + ((j + 1) * width))
  in
  Array.of_list
    ((1 lsl first_octave)
    :: List.concat_map octave (List.init (last_octave - first_octave) (fun i -> first_octave + i)))

let create () = Hist.create ~bounds ()
let record = Hist.observe
let count = Hist.count
let sum = Hist.sum

let percentile t p =
  let n = Hist.count t in
  if n = 0 then nan
  else begin
    let rank = max 1 (int_of_float (ceil (p /. 100. *. float_of_int n))) in
    let counts = Hist.counts t in
    let top = Hist.max_value t in
    let rec find i cum =
      let c = counts.(i) in
      if cum + c >= rank || i = Array.length counts - 1 then (i, cum, c) else find (i + 1) (cum + c)
    in
    let i, cum, c = find 0 0 in
    let lo = if i = 0 then 0 else bounds.(i - 1) in
    let hi = if i < Array.length bounds then min bounds.(i) top else top in
    let lo = min lo hi in
    float_of_int lo +. (float_of_int (hi - lo) *. float_of_int (rank - cum) /. float_of_int (max c 1))
  end
