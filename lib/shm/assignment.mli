(** Name assignments and their validation.

    The output of every renaming algorithm is represented as an [int]
    array mapping process id to acquired name, or to [-1] for none
    (crashed or — in the almost-tight algorithms — still-unnamed
    processes), so an assignment is one flat block.  Validation
    checks the two renaming safety properties: names are within the
    namespace and no name is assigned twice. *)

type t = {
  names : int array;
      (** [names.(pid)] is the name won by [pid], or [-1] if it has none.
          Any other negative value is a name, out of range. *)
  namespace : int;  (** names must lie in [0, namespace) *)
}

val make : namespace:int -> int array -> t

val named_count : t -> int
(** Pids whose name is not [-1]. *)

val unnamed : t -> int list
(** Pids without a name ([-1]), ascending. *)

val is_valid : t -> bool
(** Every name is in range and no name is assigned twice (unnamed
    processes are allowed; completeness is checked separately because
    almost-tight algorithms leave processes unnamed by design). *)

val is_complete : t -> bool
(** Valid and every process has a name. *)
