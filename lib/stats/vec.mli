(** Minimal growable array (OCaml 5.1 has no [Dynarray] yet). *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int
val add_last : 'a t -> 'a -> unit
val get : 'a t -> int -> 'a
val iter : ('a -> unit) -> 'a t -> unit
val to_array : 'a t -> 'a array
