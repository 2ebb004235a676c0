(** Comparator networks.

    A network over [width] wires is a sequence of layers; each layer is
    a set of disjoint comparators [(i, j)] with [i < j] that order the
    values on wires [i] and [j] (minimum to [i]).  Depth — the number of
    layers — is the quantity the renaming reduction of Alistarh et
    al. [7] turns into step complexity, which is why the AKS network's
    [O(log n)] depth (vs. bitonic's [O(log² n)]) matters to the paper. *)

type comparator = { top : int; bottom : int }

type layer = comparator array

type t

val create : width:int -> layer list -> t
(** Validates wire ranges and per-layer disjointness; raises
    [Invalid_argument] on malformed networks. *)

val width : t -> int
val depth : t -> int
(* lint: allow unused-export — test hook: the comparator count the aux budget equals *)
val size : t -> int
(** Total number of comparators. *)

val layers : t -> layer array

val apply : t -> 'a array -> cmp:('a -> 'a -> int) -> 'a array
(** Functionally sorts a copy of the input through the network. *)

val sorts : t -> bool
(** Exhaustive 0-1-principle check; exponential in width, use for
    widths ≤ ~20 in tests.  See {!Zero_one} for the sampled variant. *)
