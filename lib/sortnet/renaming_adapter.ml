module Program = Renaming_sched.Program
module Executor = Renaming_sched.Executor
module Memory = Renaming_sched.Memory
module Adversary = Renaming_sched.Adversary
open Program.Syntax

type t = {
  network : Network.t;
  (* comparator_at.(layer).(wire) = (bit id, top, bottom), or (-1,_,_)
     when no comparator touches the wire in that layer. *)
  comparator_at : (int * int * int) array array;
  aux_bits : int;
}

let prepare network =
  let width = Network.width network in
  let layers = Network.layers network in
  let comparator_at =
    Array.map (fun _ -> Array.make width (-1, -1, -1)) layers
  in
  let bit = ref 0 in
  Array.iteri
    (fun l layer ->
      Array.iter
        (fun { Network.top; bottom } ->
          comparator_at.(l).(top) <- (!bit, top, bottom);
          comparator_at.(l).(bottom) <- (!bit, top, bottom);
          incr bit)
        layer)
    layers;
  { network; comparator_at; aux_bits = !bit }

let aux_bits t = t.aux_bits

let width t = Network.width t.network

let program t ~entry =
  if entry < 0 || entry >= width t then invalid_arg "Renaming_adapter.program: bad entry wire";
  let depth = Array.length t.comparator_at in
  let rec layer l wire =
    if l >= depth then
      (* Claim the exit wire as the new name; by distinctness of exit
         wires this TAS always succeeds. *)
      let* won = Program.tas_name wire in
      Program.return (if won then Some wire else None)
    else begin
      match t.comparator_at.(l).(wire) with
      | -1, _, _ -> layer (l + 1) wire
      | bit, top, bottom ->
        let* won = Program.tas_aux bit in
        layer (l + 1) (if won then top else bottom)
    end
  in
  layer 0 entry

let instance t ~entries =
  let seen = Hashtbl.create (Array.length entries) in
  Array.iter
    (fun e ->
      if Hashtbl.mem seen e then invalid_arg "Renaming_adapter.instance: duplicate entry wire";
      Hashtbl.add seen e ())
    entries;
  let memory = Memory.create ~namespace:(width t) ~aux:t.aux_bits () in
  let programs = Executor.init_programs (Array.length entries) (fun i -> program t ~entry:entries.(i)) in
  { Executor.memory; programs; label = "sortnet-renaming" }

let run t ~entries ?adversary () =
  let inst = instance t ~entries in
  let adversary = match adversary with Some a -> a | None -> Adversary.round_robin () in
  Executor.run ~adversary inst
