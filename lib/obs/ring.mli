(** A bounded ring of trace events: span begin/end markers and instant
    events, stamped with the executor's logical time.  Adding to a full
    ring drops the oldest event and counts the drop, so a trace of an
    arbitrarily long run is always the most recent window. *)

type kind = Span_begin | Span_end | Instant

type event = {
  ev_ts : int;  (** logical time (executor ticks) *)
  ev_pid : int;
  ev_kind : kind;
  ev_name : string;
  ev_args : (string * int) list;
}

type t

val create : ?capacity:int -> unit -> t
(** Default capacity 65536 events. *)

val dropped : t -> int
(** Events evicted because the ring was full. *)

val add : t -> event -> unit
val to_list : t -> event list
(** Oldest first. *)

val kind_name : kind -> string
val kind_of_name : string -> kind option
