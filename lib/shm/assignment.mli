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

(* lint: allow unused-export — test hook: builds an assignment *)
val of_names : namespace:int -> Tas_array.t -> processes:int -> t
(** Reads the winners out of the namespace registers. *)

val named_count : t -> int
(** Pids whose name is not [-1]. *)

val unnamed : t -> int list
(** Pids without a name ([-1]), ascending. *)

type violation =
  | Out_of_range of { pid : int; name : int }
  | Duplicate of { name : int; pid_a : int; pid_b : int }

(* lint: allow unused-export — test hook: lists violations *)
val violations : t -> violation list

val is_valid : t -> bool
(** No violations (unnamed processes are allowed; completeness is
    checked separately because almost-tight algorithms leave processes
    unnamed by design). *)

val is_complete : t -> bool
(** Valid and every process has a name. *)
