(** Naive insertion sorting network with one comparator per layer —
    depth equals size, [w(w−1)/2].  The worst-case baseline that makes
    the depth/size trade-off of the other networks visible. *)

(* lint: allow unused-export — unit-tested, no caller yet: insertion network *)
val network : width:int -> Network.t
