module Token_dispenser = Renaming_apps.Token_dispenser

type t = {
  block_capacity : int;
  tau : int;
  rng : Renaming_rng.Xoshiro.t;
  mutable dispenser : Token_dispenser.t;
  mutable offset : int;
}

let create ?(block_capacity = 4096) ?(tau = 16) ~rng () =
  if block_capacity < 1 then invalid_arg "Minter.create: block_capacity must be >= 1";
  {
    block_capacity;
    tau;
    rng;
    dispenser = Token_dispenser.create ~tau ~capacity:block_capacity ();
    offset = 0;
  }

let rec mint t =
  match Token_dispenser.try_acquire t.dispenser ~pid:0 ~rng:t.rng with
  | Some { Token_dispenser.token; _ } -> t.offset + token
  | None ->
    (* Block exhausted: chain a fresh dispenser at the next offset.  The
       stride is the id-range width [device_count · 2 · tau] (token ids
       are device-local slots, so the range exceeds the capacity); with
       disjoint ranges, global uniqueness reduces to per-block
       uniqueness — the dispenser's own guarantee. *)
    t.offset <- t.offset + (Token_dispenser.device_count t.dispenser * 2 * t.tau);
    t.dispenser <- Token_dispenser.create ~tau:t.tau ~capacity:t.block_capacity ();
    mint t
