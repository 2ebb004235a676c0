type answer = Pending | Won_bit | Lost_bit

type t = {
  base : int;
  tau : int;
  device : Counting_device.t;
  (* The queued requests in submission order: [pids.(i)] asked for bit
     [bits.(i)], for [i < queued].  Both arrays grow by doubling and are
     reused across cycles; [run_cycle] overwrites [bits] with verdicts. *)
  mutable pids : int array;
  mutable bits : int array;
  mutable queued : int;
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
let initial_queue = 4

let create ?rule ~base ~tau ~width () =
  if base < 0 then invalid_arg "Tau_register.create: negative base";
  if tau < 1 || tau > width then invalid_arg "Tau_register.create: tau out of range";
  {
    base;
    tau;
    device = Counting_device.create ?rule ~width ~threshold:tau ();
    pids = Array.make initial_queue 0;
    bits = Array.make initial_queue 0;
    queued = 0;
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
  let q = t.queued in
  if q = Array.length t.pids then begin
    let grow a = Array.append a (Array.make q 0) in
    t.pids <- grow t.pids;
    t.bits <- grow t.bits
  end;
  t.pids.(q) <- pid;
  t.bits.(q) <- bit;
  t.queued <- q + 1

let poll t ~pid =
  if pid < 0 then Pending
  else
    let i = find t.keys t.shift pid in
    if t.keys.(i) = pid then t.answers.(i) else Pending

let run_cycle ?resolve_order t =
  let q = t.queued in
  if q > 0 then begin
    (match resolve_order with
    | None -> ()
    | Some resolve ->
      let requests = Array.init q (fun i -> (t.pids.(i), t.bits.(i))) in
      resolve requests;
      Array.iteri
        (fun i (pid, bit) ->
          t.pids.(i) <- pid;
          t.bits.(i) <- bit)
        requests);
    t.queued <- 0;
    Counting_device.cycle t.device t.bits q;
    for i = 0 to q - 1 do
      set t t.pids.(i) (if t.bits.(i) = Counting_device.confirmed then Won_bit else Lost_bit)
    done
  end

let pending_count t = t.queued

let accepted_count t = Counting_device.accepted_count t.device
