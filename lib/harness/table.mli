(** Column-aligned text tables — how every experiment reports its
    rows — and their JSON form. *)

type t

val create : title:string -> columns:string list -> t

val add_row : t -> string list -> unit
(** Raises [Invalid_argument] if the row width differs from the
    header. *)

val add_note : t -> string -> unit
(** Free-form annotation rendered after the table (claims, fits,
    verdicts). *)

val render : t -> string

val to_json : t -> Renaming_obs.Json.t
(** [{"title", "columns", "rows", "notes"}] — rows in display order;
    the payload `renaming run --json` writes for each experiment
    (results/tables.json). *)

val cell_int : int -> string
val cell_float : ?decimals:int -> float -> string
val cell_bool : bool -> string
