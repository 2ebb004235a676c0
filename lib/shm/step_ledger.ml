type t = { steps : int array; mutable total : int }

let create ~processes =
  if processes < 0 then invalid_arg "Step_ledger.create: negative count";
  { steps = Array.make processes 0; total = 0 }

let record t ~pid =
  t.steps.(pid) <- t.steps.(pid) + 1;
  t.total <- t.total + 1

let steps_of t ~pid = t.steps.(pid)

let total t = t.total

let max_steps t = Array.fold_left max 0 t.steps

let summary t =
  let s = Renaming_stats.Summary.create () in
  Array.iter (Renaming_stats.Summary.add_int s) t.steps;
  s
