type config = { queue_limit : int; request_timeout : float; high_water : float }

let make_config ?(queue_limit = 64) ?(request_timeout = 5.0) ?(high_water = 0.85) () =
  if queue_limit < 0 then invalid_arg "Admission.make_config: queue_limit must be >= 0";
  if request_timeout <= 0. then
    invalid_arg "Admission.make_config: request_timeout must be positive";
  if high_water <= 0. || high_water > 2. then
    invalid_arg "Admission.make_config: high_water must be in (0, 2]";
  { queue_limit; request_timeout; high_water }

type shed_reason = High_water | Queue_full

type waiting = { w_ticket : int; w_session : int; w_enqueued : float }

type t = {
  cfg : config;
  queue : waiting Queue.t;
  mutable next_ticket : int;
}

let create cfg = { cfg; queue = Queue.create (); next_ticket = 0 }

let depth t = Queue.length t.queue

let offer t ~session ~now ~utilization =
  if utilization >= t.cfg.high_water then Error High_water
  else if Queue.length t.queue >= t.cfg.queue_limit then Error Queue_full
  else begin
    let ticket = t.next_ticket in
    t.next_ticket <- ticket + 1;
    Queue.add { w_ticket = ticket; w_session = session; w_enqueued = now } t.queue;
    Ok ticket
  end

type expired = { x_ticket : int; x_session : int; x_waited : float }

let expire t ~now =
  let rec drain acc =
    match Queue.peek_opt t.queue with
    | Some w when now -. w.w_enqueued > t.cfg.request_timeout ->
      ignore (Queue.pop t.queue);
      drain ({ x_ticket = w.w_ticket; x_session = w.w_session; x_waited = now -. w.w_enqueued } :: acc)
    | _ -> List.rev acc
  in
  drain []

let take t ~now =
  match Queue.take_opt t.queue with
  | None -> None
  | Some w -> Some (w.w_ticket, w.w_session, now -. w.w_enqueued)
