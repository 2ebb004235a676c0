(** Bounded admission queue with load shedding and request deadlines.

    Requests that cannot be granted immediately wait in a FIFO queue of
    bounded length.  Two degradation mechanisms keep the service
    responsive instead of collapsing under churn:
    - {e load shedding}: when utilization is at or above the high-water
      mark, or the queue is full, new requests are refused outright with
      a structured [shed_reason] (clients back off and retry);
    - {e request timeouts}: a queued request that waits longer than
      [request_timeout] expires and is answered [`Expired] rather than
      holding its queue slot forever. *)

type config = {
  queue_limit : int;  (** max waiting requests *)
  request_timeout : float;  (** max queue wait before [`Expired] *)
  high_water : float;
      (** utilization at which shedding starts.  Below 1.0 the service
          refuses new work while capacity remains (headroom reserved for
          reclaim churn and queue drain); set above 1.0 to disable
          utilization shedding entirely — admission then degrades
          through the bounded queue alone ([Queue_full] / timeouts). *)
}

val make_config :
  ?queue_limit:int -> ?request_timeout:float -> ?high_water:float -> unit -> config
(** Defaults: [queue_limit = 64], [request_timeout = 5.0],
    [high_water = 0.85]. *)

type shed_reason = High_water | Queue_full

type t

val create : config -> t

val depth : t -> int

val offer : t -> session:int -> now:float -> utilization:float -> (int, shed_reason) result
(** Enqueue a request; returns its ticket.  Sheds (without enqueueing)
    when utilization has reached the high-water mark or the queue is
    full. *)

type expired = { x_ticket : int; x_session : int; x_waited : float }

val expire : t -> now:float -> expired list
(** Drop every queued request whose wait exceeds [request_timeout]
    (FIFO order makes the overdue requests a prefix). *)

val take : t -> now:float -> (int * int * float) option
(** Dequeue the oldest still-valid request as
    [(ticket, session, waited)]; [None] when empty.  Call {!expire}
    first so deadline misses are reported, not silently granted. *)
