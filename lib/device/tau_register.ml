type answer = Pending | Won_bit | Lost_bit

type t = {
  device : Counting_device.t;
  (* The queued requests in submission order: [pids.(i)] asked for bit
     [bits.(i)], for [i < queued].  Both arrays grow by doubling and are
     reused across cycles; [run_cycle] overwrites [bits] with verdicts. *)
  mutable pids : int array;
  mutable bits : int array;
  mutable queued : int;
}

let initial_queue = 4

let create ?rule ~tau ~width () =
  if tau < 1 || tau > width then invalid_arg "Tau_register.create: tau out of range";
  {
    device = Counting_device.create ?rule ~width ~threshold:tau ();
    pids = Array.make initial_queue 0;
    bits = Array.make initial_queue 0;
    queued = 0;
  }

let submit t ~pid ~bit =
  if pid < 0 then invalid_arg "Tau_register.submit: negative pid";
  let q = t.queued in
  if q = Array.length t.pids then begin
    let grow a = Array.append a (Array.make q 0) in
    t.pids <- grow t.pids;
    t.bits <- grow t.bits
  end;
  t.pids.(q) <- pid;
  t.bits.(q) <- bit;
  t.queued <- q + 1

let run_cycle ?resolve_order t ~won ~lost answers =
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
      answers.(t.pids.(i)) <- (if t.bits.(i) = Counting_device.confirmed then won else lost)
    done
  end
