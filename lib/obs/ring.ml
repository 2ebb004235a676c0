(* A bounded ring of trace events.  Writers never block and never
   allocate beyond the event itself: when the ring is full the oldest
   event is dropped and counted, so tracing a long run degrades to "the
   most recent window" instead of unbounded memory. *)

type kind = Span_begin | Span_end | Instant

type event = {
  ev_ts : int;  (* logical time (executor ticks) *)
  ev_pid : int;
  ev_kind : kind;
  ev_name : string;
  ev_args : (string * int) list;
}

type t = {
  buf : event array;
  capacity : int;
  mutable start : int;  (* index of the oldest event *)
  mutable len : int;
  mutable dropped : int;
}

let dummy = { ev_ts = 0; ev_pid = 0; ev_kind = Instant; ev_name = ""; ev_args = [] }

let create ?(capacity = 65536) () =
  if capacity < 1 then invalid_arg "Ring.create: capacity must be >= 1";
  { buf = Array.make capacity dummy; capacity; start = 0; len = 0; dropped = 0 }

let dropped t = t.dropped

let add t ev =
  if t.len = t.capacity then begin
    (* overwrite the oldest *)
    t.buf.(t.start) <- ev;
    t.start <- (t.start + 1) mod t.capacity;
    t.dropped <- t.dropped + 1
  end
  else begin
    t.buf.((t.start + t.len) mod t.capacity) <- ev;
    t.len <- t.len + 1
  end

let to_list t = List.init t.len (fun i -> t.buf.((t.start + i) mod t.capacity))

let kind_name = function Span_begin -> "begin" | Span_end -> "end" | Instant -> "instant"

let kind_of_name = function
  | "begin" -> Some Span_begin
  | "end" -> Some Span_end
  | "instant" -> Some Instant
  | _ -> None
