module Device = Renaming_device.Counting_device
module Sample = Renaming_rng.Sample

type t = {
  capacity : int;
  tau : int;
  devices : Device.t array;
  (* capacity of the last device may be smaller than tau *)
  token_owner : int array;  (* token id -> pid, -1 when ungranted; the
                               id space is [device_count · 2 · tau], so a
                               flat array doubles as a deterministic,
                               iteration-order-stable ledger *)
  mutable ledger : int;  (* granted tokens according to the ledger *)
  request : int array;  (* a probe's one-request cycle buffer, reused *)
}

let create ?rule ?(tau = 16) ~capacity () =
  if capacity < 1 then invalid_arg "Token_dispenser.create: capacity must be >= 1";
  if tau < 1 || tau > 31 then invalid_arg "Token_dispenser.create: tau must be in [1, 31]";
  let device_count = (capacity + tau - 1) / tau in
  let devices =
    Array.init device_count (fun d ->
        let this_tau = min tau (capacity - (d * tau)) in
        Device.create ?rule ~width:(2 * this_tau) ~threshold:this_tau ())
  in
  let token_owner = Array.make (device_count * 2 * tau) (-1) in
  { capacity; tau; devices; token_owner; ledger = 0; request = [| 0 |] }

let capacity t = t.capacity
let device_count t = Array.length t.devices

let granted t =
  Array.fold_left (fun acc d -> acc + Device.accepted_count d) 0 t.devices

type grant = { token : int; probes : int }

(* One probe: submit a single-request cycle for the first free-looking
   bit of device [d]; a confirmed verdict is a token. *)
let probe_device t d =
  let device = t.devices.(d) in
  if Device.is_full device then None
  else begin
    let width = Device.width device in
    (* Deterministically target the first unset bit: with one request
       per cycle there is no race to lose, only the threshold check. *)
    let in_reg = Device.in_reg device in
    let bit = ref 0 in
    while !bit < width && Renaming_bitops.Word.test_bit in_reg !bit do
      incr bit
    done;
    if !bit >= width then None
    else begin
      t.request.(0) <- !bit;
      Device.cycle device t.request 1;
      if t.request.(0) = Device.confirmed then
        (* A bit is won at most once, so (device, bit) is a unique
           token id; ids are sparse but stable. *)
        Some ((d * 2 * t.tau) + !bit)
      else None
    end
  end

let try_acquire t ~pid ~rng =
  let n_dev = Array.length t.devices in
  let probes = ref 0 in
  (* Random probing phase: up to 2·devices random attempts. *)
  let rec random_phase attempts =
    if attempts = 0 then None
    else begin
      incr probes;
      match probe_device t (Sample.uniform_int rng n_dev) with
      | Some token -> Some token
      | None -> random_phase (attempts - 1)
    end
  in
  let sweep_phase () =
    let rec go d =
      if d >= n_dev then None
      else begin
        incr probes;
        match probe_device t d with Some token -> Some token | None -> go (d + 1)
      end
    in
    go 0
  in
  let token =
    match random_phase (2 * n_dev) with Some tok -> Some tok | None -> sweep_phase ()
  in
  match token with
  | Some token ->
    if t.token_owner.(token) >= 0 then
      invalid_arg "Token_dispenser: duplicate token grant (bug)"
    else begin
      t.token_owner.(token) <- pid;
      t.ledger <- t.ledger + 1;
      Some { token; probes = !probes }
    end
  | None -> None

let check_invariants t =
  if granted t > t.capacity then Error "granted more tokens than capacity"
  else if t.ledger <> granted t then Error "token ledger disagrees with device state"
  else begin
    let bad = ref None in
    Array.iter
      (fun d -> match Device.check_invariants d with Ok () -> () | Error e -> bad := Some e)
      t.devices;
    match !bad with Some e -> Error e | None -> Ok ()
  end
