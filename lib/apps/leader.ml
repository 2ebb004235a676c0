module Device = Renaming_device.Counting_device

(* [requests] is the cycle's reused request buffer: a competitor asks
   for both of the device's bits. *)
type t = { device : Device.t; requests : int array; mutable leader : int option }

let create () =
  { device = Device.create ~width:2 ~threshold:1 (); requests = [| 0; 0 |]; leader = None }

let compete t ~pid =
  if Device.is_full t.device then false
  else begin
    t.requests.(0) <- 0;
    t.requests.(1) <- 1;
    Device.cycle t.device t.requests 2;
    let won = t.requests.(0) = Device.confirmed || t.requests.(1) = Device.confirmed in
    if won && t.leader = None then t.leader <- Some pid;
    won
  end

let leader t = t.leader
