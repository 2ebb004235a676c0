module Executor = Renaming_sched.Executor
module Directed = Renaming_sched.Directed
module Memory = Renaming_sched.Memory
module Op = Renaming_sched.Op
module Report = Renaming_sched.Report
module Step_ledger = Renaming_shm.Step_ledger
module Check = Renaming_refine.Check
module Obs_event = Renaming_refine.Obs_event
module Spec = Renaming_refine.Spec

type violation = { kind : string; message : string }

exception Violation of violation

let () =
  Printexc.register_printer (function
    | Violation { kind; message } -> Some (Printf.sprintf "Monitor.Violation[%s]: %s" kind message)
    | _ -> None)

type mode = Tas | Returns | Announce

(* Trace excerpt length. *)
let window = 24

type t = {
  mode : mode;
  check : Check.t;
  processes : int;
  steps : int array;
  mutable total_steps : int;
  crashed : bool array;
  invoked : bool array;
  has_returned : bool array;
  returned : int array;  (* the name each pid returned, -1 for none *)
  (* Ring buffer of recent events, for the fail-fast trace excerpt.
     Events are rendered only when a violation reads the excerpt. *)
  ring : Executor.event array;
  mutable ring_filled : int;
  mutable ring_next : int;
}

let create ?obs ~mode (inst : Executor.instance) =
  let processes = Array.length inst.programs in
  {
    mode;
    check =
      Check.create ?obs
        ~config:{ Spec.namespace = Memory.namespace inst.memory; one_shot = true }
        ();
    processes;
    steps = Array.make processes 0;
    total_steps = 0;
    crashed = Array.make processes false;
    invoked = Array.make processes false;
    has_returned = Array.make processes false;
    returned = Array.make processes (-1);
    (* A placeholder: slots at or past [ring_filled] are never read. *)
    ring = Array.make window (Executor.Crashed { time = 0; pid = 0 });
    ring_filled = 0;
    ring_next = 0;
  }

let remember t event =
  t.ring.(t.ring_next) <- event;
  t.ring_next <- (t.ring_next + 1) mod window;
  if t.ring_filled < window then t.ring_filled <- t.ring_filled + 1

let excerpt t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "trace excerpt (oldest first):";
  for i = 0 to t.ring_filled - 1 do
    let idx = (t.ring_next - t.ring_filled + i + window) mod window in
    Buffer.add_string buf "\n  ";
    Buffer.add_string buf (Format.asprintf "%a" Executor.pp_event t.ring.(idx))
  done;
  Buffer.contents buf

let raise_violation t ~kind message =
  raise (Violation { kind; message = message ^ "\n" ^ excerpt t })

let fail t ~kind fmt =
  Format.kasprintf (fun msg -> raise_violation t ~kind ("safety violation: " ^ msg)) fmt

(* --- the spec side: each event adapted to observable events --- *)

let feed t ev =
  match Check.observe t.check ev with
  | `Ok -> ()
  | `Violation v ->
    raise_violation t ~kind:("refine:" ^ v.Check.v_reason)
      (Format.asprintf "refinement: %a" Check.pp_violation v)

(* The lazy invocation of the one-shot world: a pid has asked for a name
   the moment it takes its first step. *)
let ensure_invoked t pid =
  if not t.invoked.(pid) then (
    t.invoked.(pid) <- true;
    feed t (Obs_event.Invoked { session = pid }))

let on_tas t (ev : Executor.event) =
  match ev with
  | Stepped { pid; response = Op.Faulted; _ } ->
    (* An injected fault: the op did not touch memory. *)
    ensure_invoked t pid;
    Check.stutter t.check
  | Stepped { pid; op; response; _ } -> (
    ensure_invoked t pid;
    match (op, response) with
    | Op.Tas_name name, Op.Bool true -> feed t (Obs_event.Granted { session = pid; name })
    | Op.Release_name name, Op.Bool true -> feed t (Obs_event.Released { session = pid; name })
    | Op.Owned_name name, Op.Bool true -> feed t (Obs_event.Claimed { session = pid; name })
    | _ -> Check.stutter t.check)
  | Crashed { pid; _ } -> feed t (Obs_event.Crashed { session = pid })
  | Recovered { pid; _ } -> feed t (Obs_event.Recovered { session = pid })
  | Returned { pid; value = Some name; _ } ->
    (* A returned name re-asserts a grant the pid won by TAS; a name it
       does not hold is an unbacked claim. *)
    ensure_invoked t pid;
    feed t (Obs_event.Claimed { session = pid; name })
  | Returned { value = None; _ } -> Check.stutter t.check

let on_returns t (ev : Executor.event) =
  match ev with
  | Stepped { pid; _ } ->
    ensure_invoked t pid;
    Check.stutter t.check
  | Crashed { pid; _ } -> feed t (Obs_event.Crashed { session = pid })
  | Recovered { pid; _ } -> feed t (Obs_event.Recovered { session = pid })
  | Returned { pid; value = Some name; _ } ->
    (* The return is the model's only observable grant (a pid returns
       once, so it never holds the name already); returning a name
       someone else holds is a double grant. *)
    ensure_invoked t pid;
    feed t (Obs_event.Granted { session = pid; name })
  | Returned { value = None; _ } -> Check.stutter t.check

let on_announce t (ev : Executor.event) =
  match ev with
  | Stepped { response = Op.Faulted; _ } -> Check.stutter t.check
  | Stepped { op = Op.Write_word { idx = 0; value }; _ } -> (
    match Obs_event.decode value with
    | Some obs_ev -> feed t obs_ev
    | None ->
      fail t ~kind:"refine:bad-announce" "announce register wrote undecodable value %d" value)
  | Stepped _ | Crashed _ | Recovered _ | Returned _ ->
    (* Executor crashes hit pids, not the model's announced sessions;
       the model's own narration is the only observable. *)
    Check.stutter t.check

(* --- the executor discipline, then the spec --- *)

let check_pid t pid =
  if pid < 0 || pid >= t.processes then fail t ~kind:"unknown-pid" "unknown pid %d" pid

let discipline t (event : Executor.event) =
  match event with
  | Executor.Stepped { pid; time; op; _ } ->
    check_pid t pid;
    if t.crashed.(pid) then
      fail t ~kind:"step-after-crash" "process %d stepped (%a) at t=%d after crashing" pid Op.pp
        op time;
    if t.has_returned.(pid) then
      fail t ~kind:"step-after-return" "process %d stepped (%a) at t=%d after returning" pid Op.pp
        op time;
    t.steps.(pid) <- t.steps.(pid) + 1;
    t.total_steps <- t.total_steps + 1
  | Executor.Crashed { pid; time } ->
    check_pid t pid;
    if t.crashed.(pid) then fail t ~kind:"double-crash" "process %d crashed twice (t=%d)" pid time;
    if t.has_returned.(pid) then
      fail t ~kind:"crash-after-return" "process %d crashed at t=%d after returning" pid time;
    t.crashed.(pid) <- true
  | Executor.Recovered { pid; time } ->
    check_pid t pid;
    if not t.crashed.(pid) then
      fail t ~kind:"recover-of-live" "process %d recovered at t=%d without being crashed" pid time;
    t.crashed.(pid) <- false
  | Executor.Returned { pid; value; time } ->
    check_pid t pid;
    if t.has_returned.(pid) then
      fail t ~kind:"double-return" "process %d returned twice (t=%d)" pid time;
    if t.crashed.(pid) then
      fail t ~kind:"return-while-crashed" "process %d returned at t=%d while crashed" pid time;
    t.has_returned.(pid) <- true;
    Option.iter (fun name -> t.returned.(pid) <- name) value

let hook t event =
  remember t event;
  discipline t event;
  match t.mode with
  | Tas -> on_tas t event
  | Returns -> on_returns t event
  | Announce -> on_announce t event

let finalize t (report : Report.t) =
  for pid = 0 to t.processes - 1 do
    let ledger_steps = Step_ledger.steps_of report.Report.ledger ~pid in
    if ledger_steps <> t.steps.(pid) then
      fail t ~kind:"ledger-mismatch"
        "step-ledger mismatch for process %d: ledger says %d, monitor counted %d" pid ledger_steps
        t.steps.(pid)
  done;
  if report.Report.ticks <> t.total_steps then
    fail t ~kind:"tick-mismatch" "tick mismatch: report says %d, monitor counted %d"
      report.Report.ticks t.total_steps;
  Array.iteri
    (fun pid name ->
      if name <> -1 && t.returned.(pid) <> name then
        fail t ~kind:"assignment-mismatch"
          "final assignment gives %d to process %d but the monitor never saw that return" name pid)
    report.Report.assignment.Renaming_shm.Assignment.names

type verdict = Passed of Report.t | Livelocked of Report.t | Failed of violation

let judge t = function
  | Directed.Raised (Violation v) -> Failed v
  | Directed.Raised e ->
    Failed { kind = "exception:" ^ Printexc.exn_slot_name e; message = Printexc.to_string e }
  | Directed.Finished report when Report.is_livelock report -> Livelocked report
  | Directed.Finished report -> (
    match finalize t report with () -> Passed report | exception Violation v -> Failed v)
