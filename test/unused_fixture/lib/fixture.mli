(* lint: allow unused-export — stale: by_exe has a non-test user *)
val by_exe : int -> int
(** Used by a non-test executable. *)

val by_test : int -> int
(** Used only by a test. *)

(* lint: allow unused-export — test hook *)
val hook : int -> int
(** Used only by a test, and waived. *)

val ( let* ) : 'a option -> ('a -> 'b option) -> 'b option
(** Used only through [let*]. *)

val own : int -> int
(** Used only in its own module. *)

val never : int
(** Never used. *)

(** Passed whole to a functor, so every value in it counts as used. *)
module Ord : sig
  type t = int

  val compare : t -> t -> int
  val unnamed : int
end
