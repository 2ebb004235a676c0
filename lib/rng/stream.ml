type t = { seed : int64 }

let create seed = { seed }

let seed t = t.seed

let fork t ~index = Xoshiro.derive t.seed (Int64.of_int (index + 1))

let fork_into t ~index buf off = Xoshiro.derive_at t.seed ~key:(index + 1) buf off

(* FNV-1a, 64-bit.  Self-contained so per-name streams are stable
   across OCaml versions — Hashtbl.hash makes no such promise and has
   changed between releases, which would silently reseed every named
   substream on a compiler upgrade. *)
let hash_name name =
  let fnv_offset_basis = 0xCBF29CE484222325L in
  let fnv_prime = 0x100000001B3L in
  let h = ref fnv_offset_basis in
  String.iter
    (fun c -> h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) fnv_prime)
    name;
  !h

let fork_named t ~name =
  (* Force a high bit so named keys stay disjoint from the small
     positive keys [fork] derives from indices. *)
  Xoshiro.derive t.seed (Int64.logor (hash_name name) 0x4000000000000000L)
