(** Minimal growable array (OCaml 5.1 has no [Dynarray] yet). *)

type 'a t

val create : unit -> 'a t
val add_last : 'a t -> 'a -> unit
val to_array : 'a t -> 'a array
