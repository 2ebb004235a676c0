let attempts = 8
let base_delay = 1
let max_delay = 64

let backoff_delay ~attempt =
  (* attempt is 1-based: the delay before attempt k+1 is base * 2^(k-1),
     capped.  Shift guarded so huge attempt counts cannot overflow. *)
  let exp = min 20 (attempt - 1) in
  min max_delay (base_delay * (1 lsl exp))

(* Decorrelated jitter: the next delay is uniform on
   [base_delay, min (max_delay, 3 * prev)].  Unlike full jitter over the
   exponential ladder, the walk decorrelates competing clients (each
   one's next delay depends on its own previous draw, not on a shared
   attempt counter) while the 3x growth bound keeps the expected delay
   rising toward the cap under persistent contention.  [prev] is the
   caller-threaded state: pass [base_delay] (or a previous return value)
   — it is clamped into [base_delay, max_delay] so a degenerate seed
   cannot pin the walk at zero. *)
let jittered_delay ~rng ~prev =
  let prev = min max_delay (max prev base_delay) in
  let hi = min max_delay (3 * prev) in
  Renaming_rng.Sample.uniform_in_range rng ~lo:base_delay ~hi

let rec idle k = if k <= 0 then Program.return () else Program.bind Program.yield (fun () -> idle (k - 1))

(* Run a Bool-responding operation with bounded retry: the response on a
   normal answer, [exhausted] when every attempt was eaten by a
   transient fault.  Giving up must stay on the safe side of every
   invariant:
   - a TAS that keeps faulting counts as *lost* — the process never
     claims a name it cannot prove it won;
   - a read that keeps faulting counts as *set* — a scanner skips the
     register instead of fighting for information it cannot get.

   Attempt [attempt] of [op]: a top-level function, so an attempt builds
   its [Step] and one continuation and no recursive closure. *)
let rec attempt_op exhausted op attempt =
  Program.Step (op, fun resp -> on_response exhausted op attempt resp)

and on_response exhausted op attempt = function
  | Op.Bool true -> Program.Done true
  | Op.Bool false -> Program.Done false
  | Op.Faulted when attempt < attempts ->
    Program.bind (idle (backoff_delay ~attempt)) (fun () -> attempt_op exhausted op (attempt + 1))
  | Op.Faulted -> Program.Done exhausted
  | resp ->
    Format.kasprintf failwith "Retry: operation %a got response %a" Op.pp op Op.pp_response resp

let tas_aux i = attempt_op false (Op.Tas_aux i) 1
let read_aux i = attempt_op true (Op.Read_aux i) 1

(* Attempt 1 of a [Tas_name i] has answered [Faulted]: go on from there. *)
let tas_name_after_fault i k = Program.bind (on_response false (Op.Tas_name i) 1 Op.Faulted) k
