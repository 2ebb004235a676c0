type answer = Pending | Won_bit | Lost_bit

type t = {
  base : int;
  tau : int;
  device : Counting_device.t;
  mutable queue : (int * int) list;  (* (pid, bit), newest first *)
  (* pid -> answer for every pid that ever submitted: an open-addressing
     table with linear probing, at most half full, so [poll] is a few
     array reads and the storage grows with the submitters, not with
     the largest pid. *)
  mutable keys : int array;  (* pid, or [empty] *)
  mutable answers : answer array;
  mutable shift : int;  (* capacity = 2^(int_size - shift) *)
  mutable size : int;
}

let empty = -1
let initial_bits = 4

let create ?rule ~base ~tau ~width () =
  if base < 0 then invalid_arg "Tau_register.create: negative base";
  if tau < 1 || tau > width then invalid_arg "Tau_register.create: tau out of range";
  {
    base;
    tau;
    device = Counting_device.create ?rule ~width ~threshold:tau ();
    queue = [];
    keys = Array.make (1 lsl initial_bits) empty;
    answers = Array.make (1 lsl initial_bits) Pending;
    shift = Sys.int_size - initial_bits;
    size = 0;
  }

let base t = t.base

let name_slot t k =
  if k < 0 || k >= t.tau then invalid_arg "Tau_register.name_slot: slot out of range";
  t.base + k

(* The slot holding [pid], or the empty slot where it would go.
   Fibonacci hashing: the top bits of [pid] times an odd constant. *)
let rec probe keys pid i =
  let k = keys.(i) in
  if k = pid || k = empty then i else probe keys pid ((i + 1) land (Array.length keys - 1))

let find keys shift pid = probe keys pid ((pid * 0x4F1BBCDCBFA53E0B) lsr shift)

let rec set t pid answer =
  let i = find t.keys t.shift pid in
  if t.keys.(i) = pid then t.answers.(i) <- answer
  else if 2 * (t.size + 1) <= Array.length t.keys then begin
    t.keys.(i) <- pid;
    t.answers.(i) <- answer;
    t.size <- t.size + 1
  end
  else begin
    let keys = t.keys and answers = t.answers in
    t.keys <- Array.make (2 * Array.length keys) empty;
    t.answers <- Array.make (2 * Array.length keys) Pending;
    t.shift <- t.shift - 1;
    t.size <- 0;
    Array.iteri (fun j k -> if k <> empty then set t k answers.(j)) keys;
    set t pid answer
  end

let submit t ~pid ~bit =
  if pid < 0 then invalid_arg "Tau_register.submit: negative pid";
  set t pid Pending;
  t.queue <- (pid, bit) :: t.queue

let poll t ~pid =
  if pid < 0 then Pending
  else
    let i = find t.keys t.shift pid in
    if t.keys.(i) = pid then t.answers.(i) else Pending

let run_cycle t ~resolve_order =
  match t.queue with
  | [] -> ()
  | queue ->
    let requests = Array.of_list (List.rev queue) in
    t.queue <- [];
    resolve_order requests;
    let outcomes = Counting_device.tick t.device ~requests in
    Array.iteri
      (fun i (pid, _bit) ->
        let answer =
          match outcomes.(i) with
          | Counting_device.Confirmed -> Won_bit
          | Counting_device.Lost | Counting_device.Revoked -> Lost_bit
        in
        set t pid answer)
      requests

let pending_count t = List.length t.queue

let accepted_count t = Counting_device.accepted_count t.device
