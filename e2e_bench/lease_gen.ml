(* A closed-loop client generator for the lease path, closed in
   simulated time, over three backends that share one probing
   discipline: the bare [Lease] table, the [Service] (lease + admission
   + audit) and an in-process [Router] at its smallest (2 shards x 2
   slices, each of half the capacity).
   The same generator over each backend is the attribution ladder's
   lease rungs; over [Service] it is the lease-direct workload.

   Pinned load: capacity 256, ttl 10, queue 64, request timeout 2,
   high-water 0.85; 512 clients whose think times shrink with their
   Zipf(1) rank, so about twice as many clients want a name as there is
   capacity.  Holds are U[0.5, 2.5]; a holder renews and uses its name
   every 1.0; 10% of holders crash and 20% of those leave a ghost that
   replays its stale fence 1.5-2.5 ttl later; the service is pumped
   every 0.1.  Shed and timed-out acquires back off and retry, so no
   session is abandoned.

   The event queue is the benchmark's own (not the service's heap), so
   a change to the service's data structures moves only the timed
   calls. *)

module Clock = Renaming_clock.Clock
module Lease = Renaming_service.Lease
module Admission = Renaming_service.Admission
module Service = Renaming_service.Service
module Router = Renaming_service.Router
module Stream = Renaming_rng.Stream
module Xoshiro = Renaming_rng.Xoshiro
module Sample = Renaming_rng.Sample
module Zipf = Renaming_workload.Zipf

let capacity = 256
let ttl = 10.0
let queue_limit = 64
let request_timeout = 2.0
let high_water = 0.85
let clients = 512
let renew_every = 1.0
let pump_every = 0.1
let crash_rate = 0.1
let ghost_rate = 0.2
let mean_think = 0.25
let backoff_base = 0.25
let hold_min = 0.5
let hold_span = 2.0

let k_acquire = 0
let k_renew = 1
let k_use = 2
let k_release = 3
let k_pump = 4
let kinds layer = Array.map (fun c -> layer ^ "." ^ c) [| "acquire"; "renew"; "use"; "release"; "pump" |]

(* Binary min-heap of events on (time, insertion order), in unboxed
   arrays so the generator's own cost stays small. *)
module Events = struct
  type t = {
    mutable time : float array;
    mutable seq : int array;
    mutable ev : int array;
    mutable len : int;
    mutable next : int;
    last : float array;  (* time of the latest pop *)
  }

  let create () =
    { time = Array.make 1024 0.; seq = Array.make 1024 0; ev = Array.make 1024 0; len = 0; next = 0; last = [| 0. |] }

  let before q i j =
    let a = q.time.(i) and b = q.time.(j) in
    a < b || (a = b && q.seq.(i) < q.seq.(j))

  let swap q i j =
    let t = q.time.(i) and s = q.seq.(i) and e = q.ev.(i) in
    q.time.(i) <- q.time.(j);
    q.seq.(i) <- q.seq.(j);
    q.ev.(i) <- q.ev.(j);
    q.time.(j) <- t;
    q.seq.(j) <- s;
    q.ev.(j) <- e

  let push q at ev =
    if q.len = Array.length q.time then begin
      let grow a fill = Array.append a (Array.make (Array.length a) fill) in
      q.time <- grow q.time 0.;
      q.seq <- grow q.seq 0;
      q.ev <- grow q.ev 0
    end;
    let i = ref q.len in
    q.time.(!i) <- at;
    q.seq.(!i) <- q.next;
    q.ev.(!i) <- ev;
    q.next <- q.next + 1;
    q.len <- q.len + 1;
    while !i > 0 && before q !i ((!i - 1) / 2) do
      swap q !i ((!i - 1) / 2);
      i := (!i - 1) / 2
    done

  let pop q =
    let top = q.ev.(0) in
    q.last.(0) <- q.time.(0);
    q.len <- q.len - 1;
    swap q 0 q.len;
    let i = ref 0 and continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      let smallest = if l < q.len && before q l !i then l else !i in
      let smallest = if l + 1 < q.len && before q (l + 1) smallest then l + 1 else smallest in
      if smallest = !i then continue := false
      else begin
        swap q !i smallest;
        i := smallest
      end
    done;
    top

  let is_empty q = q.len = 0
end

(* The holder-uniqueness oracle: the session each name is granted to,
   as the clients see it.  A crashed client is no longer a live holder,
   so its name is dropped here when it crashes. *)
module Holders = struct
  type t = int array

  let create slots = Array.make slots (-1)

  let grant t ~name ~session =
    if t.(name) >= 0 then false
    else begin
      t.(name) <- session;
      true
    end

  let drop t ~name ~session = if t.(name) = session then t.(name) <- -1
end

type acquired = Granted | Queued | Refused

module type BACKEND = sig
  type t
  type fence

  val layer : string
  val create : clock:Clock.t -> stream:Stream.t -> t
  val slots : t -> int
  val name_of : t -> fence -> int

  val acquire : t -> Meter.t -> session:int -> key:int -> acquired
  val granted : t -> fence
  (** Fence of the latest [Granted] acquire. *)

  val ticket : t -> int
  (** Ticket of the latest [Queued] acquire. *)

  val renew : t -> Meter.t -> fence -> rid:int -> bool
  val use : t -> Meter.t -> fence -> rid:int -> bool
  val release : t -> Meter.t -> fence -> rid:int -> bool
  val pump : t -> Meter.t -> unit

  val drain : t -> on_done:(int -> fence -> unit) -> on_timeout:(int -> unit) -> unit
  (** The latest pump's completions, in order. *)

  val probes : t -> int
  (** Probes spent by every grant so far. *)
end

let lease_config () = Lease.make_config ~ttl ~capacity ()
let no_fence = { Lease.f_name = -1; f_session = -1; f_epoch = -1 }

(* [answered m kind ~rid t0 r]: the call timed from [t0] has just
   returned [r]; true when it was accepted. *)
let answered m kind ~rid t0 r =
  Meter.call m kind ~rid t0;
  Result.is_ok r

module Lease_backend = struct
  type fence = Lease.fence
  type t = { lease : Lease.t; clock : Clock.t; rng : Xoshiro.t; mutable last : fence; mutable probes : int }

  let layer = "lease"

  let create ~clock ~stream =
    {
      lease = Lease.create (lease_config ());
      clock;
      rng = Stream.fork_named stream ~name:"service";
      last = no_fence;
      probes = 0;
    }

  let slots b = Lease.slots b.lease
  let name_of _ (f : fence) = f.Lease.f_name

  let acquire b m ~session ~key:_ =
    let t0 = Meter.now () in
    let r = Lease.acquire b.lease ~session ~now:(Clock.now b.clock) ~rng:b.rng in
    Meter.call m k_acquire ~rid:session t0;
    match r with
    | Ok g ->
      b.last <- g.Lease.g_fence;
      b.probes <- b.probes + g.Lease.g_probes;
      Granted
    | Error `At_capacity -> Refused

  let granted b = b.last
  let ticket _ = -1

  let renew b m fence ~rid =
    let t0 = Meter.now () in
    answered m k_renew ~rid t0 (Lease.renew b.lease ~fence ~now:(Clock.now b.clock))

  let use b m fence ~rid =
    let t0 = Meter.now () in
    answered m k_use ~rid t0 (Lease.validate b.lease ~fence)

  let release b m fence ~rid =
    let t0 = Meter.now () in
    answered m k_release ~rid t0 (Lease.release b.lease ~fence ~now:(Clock.now b.clock))

  let pump b m =
    let t0 = Meter.now () in
    let r = Lease.reclaim_expired b.lease ~now:(Clock.now b.clock) in
    Meter.call m k_pump ~rid:0 t0;
    ignore r

  let drain _ ~on_done:_ ~on_timeout:_ = ()
  let probes b = b.probes
end

module Service_backend = struct
  type fence = Lease.fence

  type t = {
    svc : Service.t;
    mutable last : fence;
    mutable ticket : int;
    mutable pumped : Service.completion list;
    mutable probes : int;
  }

  let layer = "service"

  let create ~clock ~stream =
    let admission = Admission.make_config ~queue_limit ~request_timeout ~high_water () in
    let cfg = Service.make_config ~lease:(lease_config ()) ~admission () in
    {
      svc = Service.create ~clock ~rng:(Stream.fork_named stream ~name:"service") cfg;
      last = no_fence;
      ticket = -1;
      pumped = [];
      probes = 0;
    }

  let slots b = Service.slots b.svc
  let name_of _ (f : fence) = f.Lease.f_name

  let acquire b m ~session ~key:_ =
    let t0 = Meter.now () in
    let o = Service.acquire b.svc ~session in
    Meter.call m k_acquire ~rid:session t0;
    match o with
    | Service.Granted g ->
      b.last <- g.Lease.g_fence;
      b.probes <- b.probes + g.Lease.g_probes;
      Granted
    | Service.Queued ticket ->
      b.ticket <- ticket;
      Queued
    | Service.Shed _ -> Refused

  let granted b = b.last
  let ticket b = b.ticket

  let renew b m fence ~rid =
    let t0 = Meter.now () in
    answered m k_renew ~rid t0 (Service.renew b.svc ~fence)

  let use b m fence ~rid =
    let t0 = Meter.now () in
    answered m k_use ~rid t0 (Service.use b.svc ~fence)

  let release b m fence ~rid =
    let t0 = Meter.now () in
    answered m k_release ~rid t0 (Service.release b.svc ~fence)

  let pump b m =
    let t0 = Meter.now () in
    let r = Service.pump b.svc in
    Meter.call m k_pump ~rid:0 t0;
    b.pumped <- r

  let drain b ~on_done ~on_timeout =
    List.iter
      (function
        | Service.Done { ticket; grant; _ } ->
          b.probes <- b.probes + grant.Lease.g_probes;
          on_done ticket grant.Lease.g_fence
        | Service.Timed_out { ticket; _ } -> on_timeout ticket)
      b.pumped

  let probes b = b.probes
end

module Router_backend = struct
  type fence = Router.gfence

  type t = {
    router : Router.t;
    mutable last : fence;
    mutable ticket : int;
    mutable pumped : Router.completion list;
    mutable probes : int;
  }

  let layer = "router"

  let create ~clock ~stream =
    let cfg =
      Router.make_config ~shards:2 ~slices:2 ~slice_capacity:(capacity / 2) ~ttl ~queue_limit
        ~request_timeout ~high_water ()
    in
    let seed = Xoshiro.next (Stream.fork_named stream ~name:"service") in
    {
      router = Router.create ~clock ~seed cfg;
      last = { Router.gf_slice = -1; gf_fence = no_fence };
      ticket = -1;
      pumped = [];
      probes = 0;
    }

  let slots b = Router.slices b.router * Router.slice_width b.router
  (* Each slice's admission queue numbers its own tickets. *)
  let global_ticket b ~slice ~ticket = (ticket * Router.slices b.router) + slice

  let name_of b (f : fence) = (f.Router.gf_slice * Router.slice_width b.router) + f.Router.gf_fence.Lease.f_name

  let acquire b m ~session ~key =
    let t0 = Meter.now () in
    let o = Router.acquire b.router ~session ~key in
    Meter.call m k_acquire ~rid:session t0;
    match o with
    | Router.Granted g ->
      b.last <- Router.fence_of_grant g;
      b.probes <- b.probes + g.Router.sg_grant.Lease.g_probes;
      Granted
    | Router.Queued { slice; ticket; _ } ->
      b.ticket <- global_ticket b ~slice ~ticket;
      Queued
    | Router.Shed _ | Router.Busy _ -> Refused

  let granted b = b.last
  let ticket b = b.ticket

  let renew b m fence ~rid =
    let t0 = Meter.now () in
    answered m k_renew ~rid t0 (Router.renew b.router ~fence)

  let use b m fence ~rid =
    let t0 = Meter.now () in
    answered m k_use ~rid t0 (Router.use b.router ~fence)

  let release b m fence ~rid =
    let t0 = Meter.now () in
    answered m k_release ~rid t0 (Router.release b.router ~fence)

  let pump b m =
    let t0 = Meter.now () in
    let r = Router.pump b.router in
    Meter.call m k_pump ~rid:0 t0;
    b.pumped <- r

  let drain b ~on_done ~on_timeout =
    List.iter
      (fun (c : Router.completion) ->
        match c.Router.c_done with
        | Service.Done { ticket; grant; _ } ->
          b.probes <- b.probes + grant.Lease.g_probes;
          on_done
            (global_ticket b ~slice:c.Router.c_slice ~ticket)
            { Router.gf_slice = c.Router.c_slice; gf_fence = grant.Lease.g_fence }
        | Service.Timed_out { ticket; _ } -> on_timeout (global_ticket b ~slice:c.Router.c_slice ~ticket))
      b.pumped

  let probes b = b.probes
end

(* Event kinds, in the low 3 bits of an event; the rest is
   [generation * clients + client], or the ghost index. *)
let e_start = 0
let e_renew = 1
let e_finish = 2
let e_crash = 3
let e_ghost = 4
let e_pump = 5

module Gen (B : BACKEND) = struct
  (* A tape of the backend's answers: recorded from a live run, then
     replayed with no backend behind it, which leaves the generator's
     own cost along the identical path — the attribution cross-check. *)
  type answer =
    | A_granted of B.fence
    | A_queued of int
    | A_refused
    | A_bool of bool
    | A_pumped of (int * B.fence option) list

  type tape = Live | Record of answer Queue.t | Replay of answer Queue.t

  type counters = {
    mutable calls : int;
    mutable attempts : int;
    mutable grants : int;
    mutable refused : int;
    mutable queued : int;
    mutable timeouts : int;
    mutable sessions : int;
    mutable crashes : int;
    mutable ghost_ops : int;
    mutable ghost_fenced : int;
    mutable unexpected : int;
    mutable orphans : int;
    mutable pumps : int;
    mutable events : int;
    mutable errors : string list;
  }

  type st = {
    b : B.t;
    m : Meter.t;
    tape : tape;
    rng : Xoshiro.t;
    q : Events.t;
    now : float array;
    gen : int array;
    session : int array;
    ticket : int array;  (* the queue ticket a client waits on, or -1 *)
    first_try : float array;
    attempts : int array;
    hold_end : float array;
    think : float array;
    fence : B.fence option array;
    owner : int array;  (* ticket land mask -> client *)
    mutable ghosts : B.fence array;
    mutable n_ghosts : int;
    mutable next_session : int;
    holders : Holders.t;
    wait : Lat.t;  (* first attempt -> grant, centiticks of sim time *)
    c : counters;
  }

  let mask = 4095

  let is_replay st = match st.tape with Replay _ -> true | Live | Record _ -> false

  (* The timed call of a replayed answer is the tape read itself. *)
  let replayed st kind ~rid =
    match st.tape with
    | Replay q ->
      let t0 = Meter.now () in
      let a = Queue.pop q in
      Meter.call st.m kind ~rid t0;
      a
    | Live | Record _ -> invalid_arg "Lease_gen: not replaying"

  let fenced_op st kind op fence ~rid =
    match st.tape with
    | Replay _ -> ( match replayed st kind ~rid with A_bool ok -> ok | _ -> false)
    | Live -> op st.b st.m fence ~rid
    | Record q ->
      let ok = op st.b st.m fence ~rid in
      Queue.push (A_bool ok) q;
      ok

  let pump st ~on_done ~on_timeout =
    if is_replay st then
      match replayed st k_pump ~rid:0 with
      | A_pumped l -> List.iter (function t, Some f -> on_done t f | t, None -> on_timeout t) l
      | _ -> ()
    else begin
      B.pump st.b st.m;
      match st.tape with
      | Record q ->
        let l = ref [] in
        B.drain st.b
          ~on_done:(fun t f ->
            l := (t, Some f) :: !l;
            on_done t f)
          ~on_timeout:(fun t ->
            l := (t, None) :: !l;
            on_timeout t);
        Queue.push (A_pumped (List.rev !l)) q
      | Live | Replay _ -> B.drain st.b ~on_done ~on_timeout
    end

  let schedule st ~at ev = Events.push st.q at ev
  let client_event st c kind = (((st.gen.(c) * clients) + c) lsl 3) lor kind
  let unit st = Sample.float_unit st.rng
  let error st msg = st.c.errors <- msg :: st.c.errors

  let bump_gen st c = st.gen.(c) <- st.gen.(c) + 1

  let retry st c =
    st.attempts.(c) <- st.attempts.(c) + 1;
    bump_gen st c;
    st.ticket.(c) <- -1;
    let backoff = backoff_base *. float_of_int (1 lsl min st.attempts.(c) 4) *. (0.5 +. unit st) in
    schedule st ~at:(st.now.(0) +. backoff) (client_event st c e_start)

  let hold st c f =
    let now = st.now.(0) in
    st.c.grants <- st.c.grants + 1;
    st.ticket.(c) <- -1;
    st.fence.(c) <- Some f;
    Lat.record st.wait (int_of_float (((now -. st.first_try.(c)) *. 100.) +. 0.5));
    let name = B.name_of st.b f in
    if not (Holders.grant st.holders ~name ~session:st.session.(c)) then
      error st (Printf.sprintf "name %d granted to session %d while session %d holds it" name
                  st.session.(c) st.holders.(name));
    bump_gen st c;
    let hold = hold_min +. (unit st *. hold_span) in
    st.hold_end.(c) <- now +. hold;
    if Sample.bernoulli st.rng crash_rate then
      schedule st ~at:(now +. (unit st *. hold)) (client_event st c e_crash)
    else begin
      schedule st ~at:st.hold_end.(c) (client_event st c e_finish);
      if now +. renew_every < st.hold_end.(c) then
        schedule st ~at:(now +. renew_every) (client_event st c e_renew)
    end

  let enqueue st c ticket =
    st.c.queued <- st.c.queued + 1;
    st.ticket.(c) <- ticket;
    st.owner.(ticket land mask) <- c

  let refuse st c =
    st.c.refused <- st.c.refused + 1;
    retry st c

  let start st c =
    if st.session.(c) < 0 then begin
      st.session.(c) <- st.next_session;
      st.next_session <- st.next_session + 1;
      st.first_try.(c) <- st.now.(0);
      st.attempts.(c) <- 0
    end;
    st.c.attempts <- st.c.attempts + 1;
    st.c.calls <- st.c.calls + 1;
    let session = st.session.(c) in
    match st.tape with
    | Replay _ -> (
      match replayed st k_acquire ~rid:session with
      | A_granted f -> hold st c f
      | A_queued ticket -> enqueue st c ticket
      | A_refused | A_bool _ | A_pumped _ -> refuse st c)
    | Live -> (
      match B.acquire st.b st.m ~session ~key:c with
      | Granted -> hold st c (B.granted st.b)
      | Queued -> enqueue st c (B.ticket st.b)
      | Refused -> refuse st c)
    | Record q -> (
      match B.acquire st.b st.m ~session ~key:c with
      | Granted ->
        let f = B.granted st.b in
        Queue.push (A_granted f) q;
        hold st c f
      | Queued ->
        let ticket = B.ticket st.b in
        Queue.push (A_queued ticket) q;
        enqueue st c ticket
      | Refused ->
        Queue.push A_refused q;
        refuse st c)

  let live_op st kind op c =
    match st.fence.(c) with
    | None -> ()
    | Some f ->
      st.c.calls <- st.c.calls + 1;
      if not (fenced_op st kind op f ~rid:st.session.(c)) then st.c.unexpected <- st.c.unexpected + 1

  let end_session st c =
    (match st.fence.(c) with
    | Some f -> Holders.drop st.holders ~name:(B.name_of st.b f) ~session:st.session.(c)
    | None -> ());
    st.fence.(c) <- None;
    st.session.(c) <- -1;
    bump_gen st c

  let on_done st ticket f =
    let c = st.owner.(ticket land mask) in
    if st.ticket.(c) = ticket then hold st c f
    else begin
      (* nobody is waiting for this grant: hand it straight back *)
      st.c.orphans <- st.c.orphans + 1;
      ignore (fenced_op st k_release B.release f ~rid:(-1))
    end

  let on_timeout st ticket =
    let c = st.owner.(ticket land mask) in
    if st.ticket.(c) = ticket then begin
      st.c.timeouts <- st.c.timeouts + 1;
      retry st c
    end

  let ghost st f =
    st.c.calls <- st.c.calls + 3;
    st.c.ghost_ops <- st.c.ghost_ops + 1;
    let renewed = fenced_op st k_renew B.renew f ~rid:(-1) in
    let used = fenced_op st k_use B.use f ~rid:(-1) in
    let released = fenced_op st k_release B.release f ~rid:(-1) in
    if renewed || used || released then error st "a ghost's stale fence was accepted"
    else st.c.ghost_fenced <- st.c.ghost_fenced + 1

  let dispatch st ev =
    let kind = ev land 7 and x = ev lsr 3 in
    if kind = e_pump then begin
      st.c.pumps <- st.c.pumps + 1;
      pump st ~on_done:(on_done st) ~on_timeout:(on_timeout st);
      schedule st ~at:(st.now.(0) +. pump_every) e_pump
    end
    else if kind = e_ghost then ghost st st.ghosts.(x)
    else begin
      let c = x mod clients in
      if x / clients = st.gen.(c) then begin
        let now = st.now.(0) in
        if kind = e_start then start st c
        else if kind = e_renew then begin
          live_op st k_renew B.renew c;
          live_op st k_use B.use c;
          if now +. renew_every < st.hold_end.(c) then
            schedule st ~at:(now +. renew_every) (client_event st c e_renew)
        end
        else if kind = e_finish then begin
          live_op st k_use B.use c;
          live_op st k_release B.release c;
          st.c.sessions <- st.c.sessions + 1;
          end_session st c;
          schedule st ~at:(now +. (st.think.(c) *. (0.5 +. unit st))) (client_event st c e_start)
        end
        else if kind = e_crash then begin
          st.c.crashes <- st.c.crashes + 1;
          (match st.fence.(c) with
          | Some f when Sample.bernoulli st.rng ghost_rate ->
            if st.n_ghosts = Array.length st.ghosts then
              st.ghosts <- Array.append st.ghosts (Array.make (max 16 st.n_ghosts) f);
            st.ghosts.(st.n_ghosts) <- f;
            schedule st ~at:(now +. (1.5 *. ttl) +. (unit st *. ttl)) ((st.n_ghosts lsl 3) lor e_ghost);
            st.n_ghosts <- st.n_ghosts + 1
          | _ -> ());
          end_session st c;
          schedule st ~at:(now +. 0.5 +. unit st) (client_event st c e_start)
        end
      end
    end

  let prepare ?(tape = Live) ~size ~seed m =
    let stream = Stream.create seed in
    let now = [| 0. |] in
    let clock = Clock.of_fn ~label:"lease-gen" (fun () -> now.(0)) in
    let b = B.create ~clock ~stream in
    let zipf = Zipf.create ~s:1.0 ~n:clients () in
    let st =
      {
        b;
        m;
        tape;
        rng = Stream.fork_named stream ~name:"generator";
        q = Events.create ();
        now;
        gen = Array.make clients 0;
        session = Array.make clients (-1);
        ticket = Array.make clients (-1);
        first_try = Array.make clients 0.;
        attempts = Array.make clients 0;
        hold_end = Array.make clients 0.;
        think =
          Array.init clients (fun c ->
              mean_think *. Float.max 0.05 (1. /. sqrt (Zipf.relative_pressure zipf c)));
        fence = Array.make clients None;
        owner = Array.make (mask + 1) 0;
        ghosts = [||];
        n_ghosts = 0;
        next_session = 1;
        holders = Holders.create (B.slots b);
        wait = Lat.create ();
        c =
          {
            calls = 0;
            attempts = 0;
            grants = 0;
            refused = 0;
            queued = 0;
            timeouts = 0;
            sessions = 0;
            crashes = 0;
            ghost_ops = 0;
            ghost_fenced = 0;
            unexpected = 0;
            orphans = 0;
            pumps = 0;
            events = 0;
            errors = [];
          };
      }
    in
    for c = 0 to clients - 1 do
      schedule st ~at:(float_of_int c *. 0.002) (client_event st c e_start)
    done;
    schedule st ~at:0. e_pump;
    let horizon = float_of_int size in
    fun () ->
      Meter.start_rep m;
      (try
         while (not (Events.is_empty st.q)) && st.q.Events.time.(0) <= horizon do
           let ev = Events.pop st.q in
           st.now.(0) <- st.q.Events.last.(0);
           st.c.events <- st.c.events + 1;
           dispatch st ev
         done
       with e -> error st ("backend raised " ^ Printexc.to_string e));
      let wall_ns = Meter.end_rep m in
      let c = st.c in
      if c.unexpected > 0 then error st (Printf.sprintf "%d live holders fenced" c.unexpected);
      let probes = if is_replay st then 0 else B.probes st.b in
      {
        Rep.wall_ns;
        timed_ns = Meter.timed_ns m;
        ops = c.calls;
        failed = c.unexpected + (c.ghost_ops - c.ghost_fenced);
        steps = probes;
        named = c.grants;
        attempts = c.attempts;
        granted = c.grants;
        counts =
          [
            ("calls", float_of_int c.calls);
            ("attempts", float_of_int c.attempts);
            ("grants", float_of_int c.grants);
            ("refused", float_of_int c.refused);
            ("queued", float_of_int c.queued);
            ("timeouts", float_of_int c.timeouts);
            ("sessions", float_of_int c.sessions);
            ("crashes", float_of_int c.crashes);
            ("ghost_ops", float_of_int c.ghost_ops);
            ("orphans", float_of_int c.orphans);
            ("pumps", float_of_int c.pumps);
            ("events", float_of_int c.events);
            ("probes", float_of_int probes);
            ("wait_p99_sim", Lat.percentile st.wait 99. /. 100.);
          ];
        errors = List.rev c.errors;
      }
end

module Service_gen = Gen (Service_backend)

let workload =
  {
    Rep.name = "lease-direct";
    layers = [ "service" ];
    kinds = kinds Service_backend.layer;
    full = 600;
    smoke = 20;
    setup_batch = 1;
    domains = 1;
    deterministic = true;
    prepare = (fun ~size ~seed m -> Service_gen.prepare ~size ~seed m);
  }
