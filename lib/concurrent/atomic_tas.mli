(** Lock-free test-and-set registers on real shared memory, for {!Mc_run}.

    A register is one bit, set once: the hardware TAS of the paper's
    standard model (§IV).  As in the τ-register of §II-C, the bits share
    words: register [i] is bit [i land 31] of [int Atomic.t] word
    [i lsr 5], so no block is allocated per register.  A TAS reads the
    word and, if its bit is clear, [compare_and_set]s it with the bit
    added, retrying only when another bit of the word changed meanwhile:
    lock-free, not wait-free (OCaml 5.1 has no atomic fetch-or).  The
    step accounting counts one TAS as one step. *)

type t

val create : int -> t
(** Raises [Invalid_argument] on a negative size. *)

(* lint: allow unused-export — test hook: observes the register file *)
val size : t -> int

val test_and_set : t -> idx:int -> bool
(** Linearizable: exactly one caller ever wins each register.  Raises
    [Invalid_argument] unless [0 <= idx < size t]; the spare bits of the
    last word are not registers. *)

(* lint: allow unused-export — test hook: observes one register *)
val is_set : t -> int -> bool
(** Range-checked like {!test_and_set}. *)

(* lint: allow unused-export — test hook: observes the register file *)
val set_count : t -> int
(** A popcount per word; for post-run validation, not hot paths. *)
