(** Minimal JSON values: a deterministic emitter for every results
    file and exporter, and a small validating parser for self-checks
    and round-trip tests (no external JSON dependency). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact rendering.  Emission is deterministic: object fields keep
    their construction order.  A float prints in the fewest of 15, 16
    or 17 significant digits that parse back to it (an integral one as
    [1.0]); NaN and infinities render as [null]. *)

val to_document : t -> string
(** A results file: {!to_string}, except that each item of a non-empty
    list held by a field of the top-level object gets a line of its
    own, and the document ends with a newline. *)

val fixed : int -> float -> t
(** [fixed d x] is [x] rounded to [d] decimals as [Printf "%.*f"] rounds
    it, so it prints as at most those decimals. *)

val of_string : string -> (t, string) result
(** Parse a complete JSON document; [Error] carries the offset and
    reason of the first syntax error. *)

val member : string -> t -> t option
(** Field lookup on an object; [None] on other values. *)

val to_int : t -> int option
val to_str : t -> string option
val to_items : t -> t list option
