(* Fixed-bucket histograms for step-complexity and contention
   distributions.  Unlike Renaming_stats.Histogram (an exact hashtable
   keyed by value), buckets here are fixed at creation, so histograms
   from different runs, pids or domains merge by plain element-wise
   addition — the property the metrics snapshot and bench baseline
   diffs rely on. *)

type t = {
  bounds : int array;  (* strictly increasing inclusive upper bounds *)
  counts : int array;  (* length = Array.length bounds + 1 (last = overflow) *)
  mutable total : int;
  mutable sum : int;
  mutable max_seen : int;  (* -1 when empty *)
}

(* Powers of two up to 2^20: wide enough for every per-process step
   count this repository produces, and small enough to snapshot. *)
let default_bounds = Array.init 21 (fun i -> 1 lsl i)

let validate_bounds bounds =
  if Array.length bounds = 0 then invalid_arg "Hist.create: empty bounds";
  Array.iteri
    (fun i b ->
      if b < 0 then invalid_arg "Hist.create: negative bound";
      if i > 0 && bounds.(i - 1) >= b then
        invalid_arg "Hist.create: bounds must be strictly increasing")
    bounds

let create ?(bounds = default_bounds) () =
  validate_bounds bounds;
  {
    bounds = Array.copy bounds;
    counts = Array.make (Array.length bounds + 1) 0;
    total = 0;
    sum = 0;
    max_seen = -1;
  }

(* Index of the first bound >= v, or the overflow bucket. *)
let bucket_index t v =
  let lo = ref 0 and hi = ref (Array.length t.bounds) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.bounds.(mid) >= v then hi := mid else lo := mid + 1
  done;
  !lo

let observe_many t v ~count =
  if v < 0 then invalid_arg "Hist.observe: negative value";
  if count < 0 then invalid_arg "Hist.observe_many: negative count";
  if count > 0 then begin
    let i = bucket_index t v in
    t.counts.(i) <- t.counts.(i) + count;
    t.total <- t.total + count;
    t.sum <- t.sum + (v * count);
    if v > t.max_seen then t.max_seen <- v
  end

let observe t v = observe_many t v ~count:1

let count t = t.total
let sum t = t.sum
let max_value t = t.max_seen
let mean t = if t.total = 0 then nan else float_of_int t.sum /. float_of_int t.total
let bounds t = Array.copy t.bounds
let counts t = Array.copy t.counts

let bucket_label t i =
  if i = 0 then Printf.sprintf "<=%d" t.bounds.(0)
  else if i = Array.length t.bounds then Printf.sprintf ">%d" t.bounds.(i - 1)
  else Printf.sprintf "%d..%d" (t.bounds.(i - 1) + 1) t.bounds.(i)

let buckets t = Array.to_list (Array.mapi (fun i c -> (bucket_label t i, c)) t.counts)

let same_bounds a b =
  Array.length a.bounds = Array.length b.bounds
  && Array.for_all2 ( = ) a.bounds b.bounds

(* Element-wise addition: associative, commutative, and conserving —
   every bucket count (and total/sum) of the result is the sum of the
   operands'; max is the max.  test/test_obs.ml checks these laws. *)
let merge a b =
  if not (same_bounds a b) then invalid_arg "Hist.merge: bucket bounds differ";
  {
    bounds = Array.copy a.bounds;
    counts = Array.init (Array.length a.counts) (fun i -> a.counts.(i) + b.counts.(i));
    total = a.total + b.total;
    sum = a.sum + b.sum;
    max_seen = Stdlib.max a.max_seen b.max_seen;
  }
