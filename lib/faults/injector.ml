module Op = Renaming_sched.Op
module Sample = Renaming_rng.Sample

type t = time:int -> pid:int -> op:Op.t -> bool

let none : t = fun ~time:_ ~pid:_ ~op:_ -> false

let bernoulli ~rate ~rng : t =
  if rate < 0. || rate > 1. then invalid_arg "Injector.bernoulli: rate must be in [0, 1]";
  if rate = 0. then none
  else fun ~time:_ ~pid:_ ~op -> Op.faultable op && Sample.bernoulli rng rate

let counting inner =
  let count = ref 0 in
  let injector ~time ~pid ~op =
    let hit = inner ~time ~pid ~op in
    if hit then incr count;
    hit
  in
  (injector, fun () -> !count)
