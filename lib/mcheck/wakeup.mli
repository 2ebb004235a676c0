(** Wakeup trees for source-DPOR: ordered, append-only trees of
    reordering sequences pending at a decision point.

    Branch order is insertion order and is never rearranged; the
    explorer consumes branches left to right.  {!insert} guarantees a
    sequence is added only when no existing branch already leads to an
    equivalent state, which is what makes the exploration revisit-free:
    every committed branch starts a distinct Mazurkiewicz trace. *)

module Op = Renaming_sched.Op

type t
(** Mutable; one per decision point. *)

type branch = { b_pid : int; b_op : Op.t; b_sub : t }

type status = Covered | Inserted

val create : unit -> t
val is_empty : t -> bool

val branches : t -> branch list
(** In exploration (= insertion) order. *)

val pop : t -> branch option
(** Remove and return the leftmost branch. *)

(* lint: allow unused-export — test hook: the events that may equivalently run first *)
val weak_initials : ?dependent:(Op.t -> Op.t -> bool) -> (int * Op.t) list -> (int * Op.t) list
(** The events of the sequence that could equivalently execute first:
    the first event of a pid, independent with everything before it.
    [dependent] defaults to {!Races.dependent}. *)

val weak_initial_mem :
  ?dependent:(Op.t -> Op.t -> bool) -> (int * Op.t) list -> pid:int -> op:Op.t -> bool

val insert : ?dependent:(Op.t -> Op.t -> bool) -> t -> (int * Op.t) list -> status
(** Insert a wakeup sequence: recurse into the leftmost branch whose
    key is a weak initial of the remainder (dropping the matched
    event); an exhausted sequence or an existing leaf is [Covered]
    (some already-scheduled sequence reaches an equivalent state
    first); otherwise append the remainder as a new rightmost branch
    and report [Inserted].  The empty sequence is [Covered]. *)

(* lint: allow unused-export — test hook: a covered insertion adds no branch *)
val size : t -> int
(** Total number of branches, recursively. *)
