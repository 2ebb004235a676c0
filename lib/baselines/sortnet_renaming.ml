module Sortnet = Renaming_sortnet
module Adversary = Renaming_sched.Adversary
module Stream = Renaming_rng.Stream
module Sample = Renaming_rng.Sample

type network_kind = Bitonic | Odd_even_merge | Odd_even_transposition

let build kind ~width =
  match kind with
  | Bitonic -> Sortnet.Bitonic.network ~width:(Sortnet.Bitonic.next_pow2 width)
  | Odd_even_merge -> Sortnet.Odd_even_merge.network ~width
  | Odd_even_transposition -> Sortnet.Odd_even_transposition.network ~width

let run ?adversary ~kind ~n ~width ~seed () =
  if n > width then invalid_arg "Sortnet_renaming.run: more processes than wires";
  let network = build kind ~width in
  let adapter = Sortnet.Renaming_adapter.prepare network in
  let stream = Stream.create seed in
  let rng = Stream.fork_named stream ~name:"entries" in
  let entries = Array.sub (Sample.permutation rng (Sortnet.Network.width network)) 0 n in
  let adversary = match adversary with Some a -> a | None -> Adversary.round_robin () in
  Sortnet.Renaming_adapter.run adapter ~entries ~adversary ()
