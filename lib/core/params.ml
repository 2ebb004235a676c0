module Mathx = Renaming_plan.Mathx

type policy = Paper_literal | Mass_conserving

type block = { tau_id : int; name_base : int }

type round = { index : int; first_tau : int; blocks : int }

type t = {
  n : int;
  c : int;
  policy : policy;
  log_n : int;
  tau : int;
  width : int;
  rounds : round array;
  total_taus : int;
  reserve_base : int;
}

(* Definition 2: b_i = n / (2 (2c)^i log n), stopping at the round where
   the cluster size reaches 2 log n (Lemma 4(1)), or earlier when the
   block count hits zero for small n. *)
let literal_blocks ~n ~c ~log_n =
  let rec go acc i =
    let denom = 2 * Mathx.pow_int (2 * c) i * log_n in
    let b = n / denom in
    if b < 1 then List.rev acc else go (b :: acc) (i + 1)
  in
  go [] 1

(* Mass-conserving: expected actives shrink by 1 - 1/(4c) per round;
   every block keeps an expected load of ~4c log n requests.  Stop when
   the remaining actives fit comfortably in the reserve. *)
let conserving_blocks ~n ~c ~log_n =
  let load = 4 * c * log_n in
  let reserve_target = 4 * log_n in
  let rec go acc names_left actives =
    if actives <= reserve_target || names_left <= reserve_target then List.rev acc
    else begin
      let b = max 1 (actives / load) in
      let b = min b (names_left / log_n) in
      if b < 1 then List.rev acc
      else begin
        let named = b * log_n in
        go (b :: acc) (names_left - named) (actives - named)
      end
    end
  in
  go [] n n

let make ?(c = 4) ~policy ~n () =
  if n < 8 then invalid_arg "Params.make: n must be >= 8";
  if c < 1 then invalid_arg "Params.make: c must be >= 1";
  let log_n = Mathx.log2_ceil n in
  let tau = log_n in
  let width = 2 * log_n in
  let blocks_per_round =
    match policy with
    | Paper_literal -> literal_blocks ~n ~c ~log_n
    | Mass_conserving -> conserving_blocks ~n ~c ~log_n
  in
  let rounds = Array.make (List.length blocks_per_round) { index = 0; first_tau = 0; blocks = 0 } in
  let total_taus =
    List.fold_left
      (fun (i, first_tau) blocks ->
        rounds.(i) <- { index = i + 1; first_tau; blocks };
        (i + 1, first_tau + blocks))
      (0, 0) blocks_per_round
    |> snd
  in
  let reserve_base = total_taus * tau in
  if reserve_base > n then invalid_arg "Params.make: schedule overruns the namespace";
  { n; c; policy; log_n; tau; width; rounds; total_taus; reserve_base }

let round_count t = Array.length t.rounds

let reserve_size t = t.n - t.reserve_base

let cluster_name_coverage t = t.total_taus * t.tau

let tau_geometry t = Array.init t.total_taus (fun id -> (id * t.tau, t.tau))

let block_of_tau t tau_id =
  if tau_id < 0 || tau_id >= t.total_taus then invalid_arg "Params.block_of_tau: bad id";
  { tau_id; name_base = tau_id * t.tau }

let pp fmt t =
  let policy = match t.policy with Paper_literal -> "paper-literal" | Mass_conserving -> "mass-conserving" in
  Format.fprintf fmt
    "@[<v>tight params: n=%d c=%d policy=%s@ log n=%d tau=%d width=%d@ rounds=%d taus=%d cluster coverage=%d reserve=%d@]"
    t.n t.c policy t.log_n t.tau t.width (round_count t) t.total_taus (cluster_name_coverage t)
    (reserve_size t)
