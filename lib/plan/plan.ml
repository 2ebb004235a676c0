type segment =
  | Probe of { base : int; size : int; count : int }
  | Sweep of { base : int; size : int }

type t = segment array

let loose_geometric ~n ~ell =
  if n < 4 then invalid_arg "Plan.loose_geometric: n must be >= 4";
  if ell < 1 then invalid_arg "Plan.loose_geometric: ell must be >= 1";
  Array.init (ell * Mathx.logloglog2_ceil n) (fun i ->
      Probe { base = 0; size = n; count = Mathx.pow_int 2 (i + 1) })

let loose_clustered ?(boost = 1) ~n ~ell () =
  if n < 4 then invalid_arg "Plan.loose_clustered: n must be >= 4";
  if ell < 1 then invalid_arg "Plan.loose_clustered: ell must be >= 1";
  if boost < 1 then invalid_arg "Plan.loose_clustered: boost must be >= 1";
  let phases = Mathx.loglog2_ceil n in
  let count = boost * 2 * ell * phases in
  let base = ref 0 in
  let plan =
    Array.init phases (fun j ->
        (* Literally, cluster j+1 holds n/2^(j+1) registers; summed over
           all phases that covers only n - n/2^phases ≈ n - n/log n
           registers, which would put a structural floor of n/log n on
           the unnamed count — above Lemma 8's claimed n/(log n)^{2ℓ}.
           Following the evident intent (DESIGN.md §3), the last cluster
           absorbs the tail so the clusters jointly cover the whole
           namespace. *)
        let size = if j = phases - 1 then n - !base else max 1 (n / Mathx.pow_int 2 (j + 1)) in
        let seg = Probe { base = !base; size; count } in
        base := !base + size;
        seg)
  in
  assert (!base = n);
  plan

let uniform_probing ?max_probes ~m () =
  if m < 1 then invalid_arg "Plan.uniform_probing: m must be >= 1";
  let count = match max_probes with Some p -> p | None -> 4 * m in
  if count < 1 then invalid_arg "Plan.uniform_probing: max_probes must be >= 1";
  [| Probe { base = 0; size = m; count }; Sweep { base = 0; size = m } |]

let linear_scan ~first ~count = [| Sweep { base = first; size = count } |]

let backup ~base ~size =
  if size < 1 then invalid_arg "Plan.corollary: ext must be >= 1";
  let rec batches acc batch =
    if batch > 4 * size then List.rev (Sweep { base; size } :: acc)
    else batches (Probe { base; size; count = batch } :: acc) (2 * batch)
  in
  Array.of_list (batches [] 1)

let corollary ~first ~n ~ext =
  Array.concat [ first; backup ~base:n ~size:ext; linear_scan ~first:0 ~count:n ]

let adaptive ~k ~ell ~epsilon =
  let block j = max 2 (int_of_float (ceil ((1. +. epsilon) *. float_of_int (Mathx.pow_int 2 j)))) in
  (* Lemma 6's step budget under the estimate 2^j: the sum of 2^i over
     ell * logloglog(2^j) rounds. *)
  let budget j = Mathx.pow_int 2 ((ell * Mathx.logloglog2_ceil (max 4 (Mathx.pow_int 2 j))) + 1) - 2 in
  let base = ref 0 in
  let levels =
    Array.init (Mathx.log2_ceil (max 2 k) + 3) (fun j ->
        let size = block j in
        let seg = Probe { base = !base; size; count = budget j } in
        base := !base + size;
        seg)
  in
  let last = block (Array.length levels - 1) in
  Array.append levels
    [| Sweep { base = !base - last; size = last }; Sweep { base = 0; size = !base - last } |]

let probe_budget plan =
  Array.fold_left
    (fun acc seg -> match seg with Probe { count; _ } -> acc + max 0 count | Sweep _ -> acc)
    0 plan
