type instance = {
  memory : Memory.t;
  programs : int option Program.t array;
  label : string;
}

(* [Array.init] makes its array from [f 0], and for an array too large
   for the minor heap (over 256 words) whose initial value is young the
   runtime first runs a minor collection.  [Done None] is a static
   constant, so starting from it forces nothing. *)
let init_programs n f =
  let programs = Array.make n (Program.Done None) in
  for pid = 0 to n - 1 do
    programs.(pid) <- f pid
  done;
  programs

type event =
  | Stepped of { time : int; pid : int; op : Op.t; response : Op.response }
  | Crashed of { time : int; pid : int }
  | Recovered of { time : int; pid : int }
  | Returned of { time : int; pid : int; value : int option }

let pp_event fmt = function
  | Stepped { time; pid; op; response } ->
    Format.fprintf fmt "t=%d p%d %a -> %a" time pid Op.pp op Op.pp_response response
  | Crashed { time; pid } -> Format.fprintf fmt "t=%d p%d CRASH" time pid
  | Recovered { time; pid } -> Format.fprintf fmt "t=%d p%d RECOVER" time pid
  | Returned { time; pid; value } ->
    Format.fprintf fmt "t=%d p%d return %s" time pid
      (match value with Some v -> string_of_int v | None -> "none")

(* The runnable set is a swap-compacted array: [arr.(0 .. len-1)] are the
   runnable pids and [pos.(pid)] is the index of [pid] in [arr] (or -1).
   Removal is O(1), which keeps fair schedulers O(1) per tick. *)
type live_set = { arr : int array; pos : int array; mutable len : int }

let live_create n = { arr = Array.init n (fun i -> i); pos = Array.init n (fun i -> i); len = n }

let live_remove t pid =
  let i = t.pos.(pid) in
  if i < 0 then invalid_arg "Executor: removing non-live pid";
  let last = t.arr.(t.len - 1) in
  t.arr.(i) <- last;
  t.pos.(last) <- i;
  t.pos.(pid) <- -1;
  t.len <- t.len - 1

let live_add t pid =
  if t.pos.(pid) >= 0 then invalid_arg "Executor: adding already-live pid";
  t.arr.(t.len) <- pid;
  t.pos.(pid) <- t.len;
  t.len <- t.len + 1

(* Per-run telemetry: counter handles are resolved once here so the
   per-step cost with a capability is two field increments plus one
   ring push, and without one is a single match on [None]. *)
type obs_hooks = {
  h_obs : Renaming_obs.Obs.t;
  h_steps : Renaming_obs.Metrics.counter;
}

let run ?obs ?(tau_cadence = 1) ?(max_ticks = 1_000_000_000) ?on_event ?inject ~adversary
    instance =
  if tau_cadence < 1 then invalid_arg "Executor.run: tau_cadence must be >= 1";
  let n = Array.length instance.programs in
  (* [programs.(pid)] is the process's current program: a [Step] while it
     can run, [Done v] once it has returned [v].  [crashed.(pid)] marks a
     crashed process, whatever its program. *)
  let programs = Array.copy instance.programs in
  let live = live_create n in
  let ledger = Renaming_shm.Step_ledger.create ~processes:n in
  let crashed = Array.make n false in
  let ever_recovered = Array.make n false in
  let time = ref 0 in
  let livelocked = ref false in
  let hooks =
    match obs with
    | None -> None
    | Some o ->
      Renaming_obs.Obs.set_now o (fun () -> !time);
      Some { h_obs = o; h_steps = Renaming_obs.Obs.counter o (instance.label ^ "/executor.steps") }
  in
  (* With no listener no event value is built: every [emit] site tests
     [listening] first. *)
  let listening = Option.is_some hooks || Option.is_some on_event in
  let emit e =
    (match hooks with
    | None -> ()
    | Some h -> (
      match e with
      | Stepped { pid; op; _ } ->
        Renaming_obs.Metrics.incr h.h_steps;
        Renaming_obs.Obs.instant h.h_obs ~pid ~args:(Telemetry.op_args op)
          (Telemetry.op_label op)
      | Crashed { pid; _ } -> Renaming_obs.Obs.span_begin h.h_obs ~pid "crashed"
      | Recovered { pid; _ } -> Renaming_obs.Obs.span_end h.h_obs ~pid "crashed"
      | Returned { pid; value; _ } ->
        Renaming_obs.Obs.instant h.h_obs ~pid
          ~args:(match value with Some v -> [ ("name", v) ] | None -> [])
          "return"));
    match on_event with Some f -> f e | None -> ()
  in
  (* Restarting a crashed process: rediscover a name already won (so it
     is kept, not leaked), then rerun its program from the top. *)
  let restart_program pid =
    Program.bind (Program.recover_owned ~namespace:(Memory.namespace instance.memory))
      (function
        | Some nm -> Program.return (Some nm)
        | None -> instance.programs.(pid))
  in
  let pending_op pid =
    match programs.(pid) with
    | Program.Step (op, _) when not crashed.(pid) -> op
    | Program.Step _ | Program.Done _ -> invalid_arg "Executor: pending_op on non-parked process"
  in
  (* A program may be Done without ever touching shared memory. *)
  let settle pid =
    match programs.(pid) with
    | Program.Done value ->
      live_remove live pid;
      if listening then emit (Returned { time = !time; pid; value })
    | Program.Step _ -> ()
  in
  for pid = 0 to n - 1 do
    settle pid
  done;
  (* One view for the whole run; its [time] and [runnable_count] are
     refreshed in place before every decision. *)
  let view =
    {
      Adversary.time = 0;
      runnable_count = 0;
      runnable_nth = (fun i -> live.arr.(i));
      is_runnable = (fun pid -> pid >= 0 && pid < n && live.pos.(pid) >= 0);
      is_crashed = (fun pid -> pid >= 0 && pid < n && crashed.(pid));
      pending_op;
      memory = instance.memory;
    }
  in
  while live.len > 0 && not !livelocked do
    view.Adversary.time <- !time;
    view.Adversary.runnable_count <- live.len;
    match adversary.Adversary.decide view with
    | Adversary.Crash pid ->
      (match programs.(pid) with
      | Program.Step _ when not crashed.(pid) ->
        crashed.(pid) <- true;
        live_remove live pid;
        if listening then emit (Crashed { time = !time; pid })
      | Program.Step _ | Program.Done _ ->
        invalid_arg "Executor: adversary crashed a non-running process")
    | Adversary.Recover pid ->
      if not crashed.(pid) then invalid_arg "Executor: adversary recovered a non-crashed process";
      programs.(pid) <- restart_program pid;
      crashed.(pid) <- false;
      ever_recovered.(pid) <- true;
      live_add live pid;
      if listening then emit (Recovered { time = !time; pid });
      settle pid
    | Adversary.Schedule pid ->
      (match programs.(pid) with
      | Program.Step (op, k) when not crashed.(pid) ->
        let faulted =
          match inject with Some f -> f ~time:!time ~pid ~op | None -> false
        in
        let response = if faulted then Op.Faulted else Memory.apply instance.memory ~pid op in
        Renaming_shm.Step_ledger.record ledger ~pid;
        if listening then emit (Stepped { time = !time; pid; op; response });
        programs.(pid) <- k response;
        settle pid;
        incr time;
        if tau_cadence = 1 || !time mod tau_cadence = 0 then Memory.tick_taus instance.memory;
        if !time > max_ticks then livelocked := true
      | Program.Step _ | Program.Done _ ->
        invalid_arg "Executor: adversary scheduled a non-runnable process")
  done;
  let assignment =
    Memory.assignment_of_returns instance.memory
      (Array.mapi
         (fun pid p ->
           match p with
           | Program.Done (Some v) when not crashed.(pid) -> v
           | Program.Done _ | Program.Step _ -> -1)
         programs)
  in
  let pids_where flags =
    let acc = ref [] in
    for pid = n - 1 downto 0 do
      if flags.(pid) then acc := pid :: !acc
    done;
    !acc
  in
  (match hooks with
  | None -> ()
  | Some h ->
    let o = h.h_obs in
    let steps_hist = Renaming_obs.Obs.histogram o (instance.label ^ "/steps") in
    for pid = 0 to n - 1 do
      Renaming_obs.Hist.observe steps_hist (Renaming_shm.Step_ledger.steps_of ledger ~pid)
    done;
    Renaming_obs.Metrics.add
      (Renaming_obs.Obs.counter o (instance.label ^ "/named"))
      (Renaming_shm.Assignment.named_count assignment);
    Renaming_obs.Metrics.add
      (Renaming_obs.Obs.counter o (instance.label ^ "/crashed"))
      (Array.fold_left (fun acc c -> if c then acc + 1 else acc) 0 crashed);
    Renaming_obs.Metrics.add
      (Renaming_obs.Obs.counter o (instance.label ^ "/recovered"))
      (Array.fold_left (fun acc c -> if c then acc + 1 else acc) 0 ever_recovered));
  {
    Report.assignment = assignment;
    ledger;
    ticks = !time;
    outcome = (if !livelocked then Report.Livelock { max_ticks } else Report.Completed);
    crashed = pids_where crashed;
    recovered = pids_where ever_recovered;
    adversary = adversary.Adversary.name;
    counters = [];
  }
