module Clock = Renaming_clock.Clock

type policy = {
  attempts : int;
  base_delay : int;
  max_delay : int;
  time_budget : float option;
}

let make_policy ?(attempts = 8) ?(base_delay = 1) ?(max_delay = 64) ?time_budget () =
  if attempts < 1 then invalid_arg "Retry.make_policy: attempts must be >= 1";
  if base_delay < 0 then invalid_arg "Retry.make_policy: base_delay must be >= 0";
  if max_delay < base_delay then invalid_arg "Retry.make_policy: max_delay < base_delay";
  (match time_budget with
  | Some b when b <= 0. -> invalid_arg "Retry.make_policy: time_budget must be > 0"
  | _ -> ());
  { attempts; base_delay; max_delay; time_budget }

let default = make_policy ()

let backoff_delay policy ~attempt =
  (* attempt is 1-based: the delay before attempt k+1 is base * 2^(k-1),
     capped.  Shift guarded so huge attempt counts cannot overflow. *)
  let exp = min 20 (attempt - 1) in
  min policy.max_delay (policy.base_delay * (1 lsl exp))

(* Decorrelated jitter: the next delay is uniform on
   [base_delay, min (max_delay, 3 * prev)].  Unlike full jitter over the
   exponential ladder, the walk decorrelates competing clients (each
   one's next delay depends on its own previous draw, not on a shared
   attempt counter) while the 3x growth bound keeps the expected delay
   rising toward the cap under persistent contention.  [prev] is the
   caller-threaded state: pass [base_delay] (or a previous return value)
   — it is clamped into [max 1 base_delay, max_delay] so a degenerate
   seed cannot pin the walk at zero. *)
let jittered_delay policy ~rng ~prev =
  let lo = policy.base_delay in
  let prev = min policy.max_delay (max prev (max 1 lo)) in
  let hi = max lo (min policy.max_delay (3 * prev)) in
  Renaming_rng.Sample.uniform_in_range rng ~lo ~hi

let rec idle k = if k <= 0 then Program.return () else Program.bind Program.yield (fun () -> idle (k - 1))

(* Run a Bool-responding operation with bounded retry: the response on a
   normal answer, [exhausted] when every attempt was eaten by a
   transient fault.  The clock bounds total retry time: once the
   policy's [time_budget] is spent (measured on the injected clock, so
   virtual under the simulator), further faults exhaust immediately
   instead of backing off again.  With the default {!Clock.none} the
   budget never binds and behaviour is unchanged.

   Giving up must stay on the safe side of every invariant:
   - a TAS that keeps faulting counts as *lost* — the process never
     claims a name it cannot prove it won;
   - a read that keeps faulting counts as *set* — a scanner skips the
     register instead of fighting for information it cannot get. *)
let budget_spent policy clock t0 =
  match policy.time_budget with
  | None -> false
  | Some budget -> Clock.elapsed_since clock t0 >= budget

(* Attempt [attempt] of [op]: a top-level function, so an attempt builds
   its [Step] and one continuation and no recursive closure. *)
let rec attempt_op policy clock t0 exhausted op attempt =
  Program.Step (op, fun resp -> on_response policy clock t0 exhausted op attempt resp)

and on_response policy clock t0 exhausted op attempt = function
  | Op.Bool true -> Program.Done true
  | Op.Bool false -> Program.Done false
  | Op.Faulted when attempt < policy.attempts && not (budget_spent policy clock t0) ->
    Program.bind (idle (backoff_delay policy ~attempt)) (fun () ->
        attempt_op policy clock t0 exhausted op (attempt + 1))
  | Op.Faulted -> Program.Done exhausted
  | resp ->
    Format.kasprintf failwith "Retry: operation %a got response %a" Op.pp op Op.pp_response resp

let bool_op ?(clock = Clock.none) ~policy ~exhausted op =
  attempt_op policy clock (Clock.now clock) exhausted op 1

let tas_aux ?(policy = default) ?clock i = bool_op ?clock ~policy ~exhausted:false (Op.Tas_aux i)
let read_aux ?(policy = default) ?clock i = bool_op ?clock ~policy ~exhausted:true (Op.Read_aux i)

(* Attempt 1 of a [Tas_name i] has answered [Faulted]: go on from there. *)
let tas_name_after_fault i k =
  Program.bind (on_response default Clock.none (Clock.now Clock.none) false (Op.Tas_name i) 1 Op.Faulted) k
