module Stream = Renaming_rng.Stream
module Xoshiro = Renaming_rng.Xoshiro
module Sample = Renaming_rng.Sample
module Clock = Renaming_clock.Clock
module Obs = Renaming_obs.Obs
module Metrics = Renaming_obs.Metrics
module Plan = Renaming_plan.Plan

type result = {
  assignment : Renaming_shm.Assignment.t;
  steps : int array;
  wall_seconds : float;
  domains : int;
}

exception
  Stalled of {
    deadline : float;
    elapsed : float;
    per_domain_steps : int array;
    finished_domains : int;
    domains : int;
  }

let stalled_to_string = function
  | Stalled { deadline; elapsed; per_domain_steps; finished_domains; domains } ->
    let steps =
      String.concat ", "
        (Array.to_list (Array.mapi (fun d s -> Printf.sprintf "d%d=%d" d s) per_domain_steps))
    in
    Printf.sprintf
      "multicore run stalled: deadline %.3fs exceeded (elapsed %.3fs), %d/%d domains finished, \
       per-domain steps at timeout: [%s]"
      deadline elapsed finished_domains domains steps
  | _ -> invalid_arg "Mc_run.stalled_to_string: not a Stalled exception"

let () =
  Printexc.register_printer (function
    | Stalled _ as e -> Some (stalled_to_string e)
    | _ -> None)

let max_steps r = Array.fold_left max 0 r.steps

let unnamed_count r =
  Array.length r.assignment.Renaming_shm.Assignment.names
  - Renaming_shm.Assignment.named_count r.assignment

let recommended_domains () = max 1 (Domain.recommended_domain_count () - 1)

(* A domain's processes, one slot per process in flat arrays, so a run
   allocates a few large arrays and no block per process.  Slot [j] of
   domain [d]'s shard is pid [d + j * domains].  [left.(j)] counts the
   steps left in segment [seg.(j)] of [schedule.(j)] (probes for a Probe;
   cells for a Sweep, whose cursor is [size - left]).  A process is
   finished once its [seg] has run off its schedule, which is also where
   a winner is put.  Its generator state is the 32 bytes at
   [j * state_bytes] of [rngs]. *)
type shard = {
  schedule : Plan.t array;
  seg : int array;
  left : int array;
  name : int array;  (* the register won, or -1 while unnamed *)
  steps : int array;
  rngs : Bytes.t;
}

let state_bytes = Xoshiro.state_bytes

let finished sh j = sh.seg.(j) >= Array.length sh.schedule.(j)

let check_range ~namespace base size =
  if base < 0 || size > namespace - base then
    invalid_arg
      (Printf.sprintf "Mc_run.execute: segment [%d, %d) is outside the namespace [0, %d)" base
         (base + size) namespace)

(* Move slot [j] to the first non-empty segment at or after [seg], or off
   the end of its schedule.  A segment is range-checked here, once, so no
   step can address a register outside the namespace. *)
let rec enter_segment ~namespace sh j seg =
  let schedule = sh.schedule.(j) in
  sh.seg.(j) <- seg;
  if seg < Array.length schedule then
    match schedule.(seg) with
    | Plan.Probe { count; size; _ } when count <= 0 || size <= 0 ->
      enter_segment ~namespace sh j (seg + 1)
    | Plan.Sweep { size; _ } when size <= 0 -> enter_segment ~namespace sh j (seg + 1)
    | Plan.Probe { base; size; count } ->
      check_range ~namespace base size;
      sh.left.(j) <- count
    | Plan.Sweep { base; size } ->
      check_range ~namespace base size;
      sh.left.(j) <- size

(* One shared-memory step of the unfinished process in slot [j].
   Returns [true] if it is still unfinished afterwards. *)
let step regs ~namespace sh j =
  let schedule = sh.schedule.(j) in
  let seg = sh.seg.(j) and left = sh.left.(j) in
  let target =
    match schedule.(seg) with
    | Plan.Probe { base; size; count = _ } ->
      base + Sample.uniform_int_at sh.rngs (j * state_bytes) size
    | Plan.Sweep { base; size } -> base + size - left
  in
  sh.left.(j) <- left - 1;
  sh.steps.(j) <- sh.steps.(j) + 1;
  if Atomic_tas.test_and_set regs ~idx:target then begin
    sh.name.(j) <- target;
    sh.seg.(j) <- Array.length schedule;
    false
  end
  else begin
    if left = 1 then enter_segment ~namespace sh j (seg + 1);
    not (finished sh j)
  end

(* Obs recording happens strictly after the domains are joined: the
   registry is process-local mutable state and must not be touched from
   worker domains. *)
let record_result obs (r : result) =
  match obs with
  | None -> ()
  | Some o ->
    let h = Obs.histogram o "multicore/steps" in
    Array.iter (fun s -> Renaming_obs.Hist.observe h s) r.steps;
    Metrics.add (Obs.counter o "multicore/steps_total") (Array.fold_left ( + ) 0 r.steps);
    Metrics.add (Obs.counter o "multicore/runs") 1;
    Obs.gauge o "multicore/wall_seconds" (fun () -> r.wall_seconds);
    Obs.gauge o "multicore/domains" (fun () -> float_of_int r.domains)

let execute ?obs ?domains ?(clock = Clock.none) ?deadline ~n ~namespace ~schedule_of_pid ~seed
    () =
  if n < 0 then invalid_arg "Mc_run.execute: n must be non-negative";
  if namespace < 0 then invalid_arg "Mc_run.execute: namespace must be non-negative";
  let domains = match domains with Some d -> max 1 d | None -> recommended_domains () in
  (match deadline with
  | Some dl ->
    if dl <= 0. then invalid_arg "Mc_run.execute: deadline must be > 0";
    if Clock.label clock = Clock.label Clock.none then
      invalid_arg "Mc_run.execute: a deadline needs a ticking clock"
  | None -> ());
  let regs = Atomic_tas.create namespace in
  let stream = Stream.create seed in
  (* Watchdog shared state: the workers publish progress, the watchdog
     publishes cancellation.  Everything crossing domains is Atomic. *)
  let cancel = Atomic.make false in
  let progress = Array.init domains (fun _ -> Atomic.make 0) in
  let done_flags = Array.init domains (fun _ -> Atomic.make false) in
  (* Domain [d] runs pids [d], [d + domains], [d + 2 * domains], ...  It
     builds that shard itself, so the schedules and stream forks run in
     parallel and each array is allocated by the domain that mutates it.
     The live set holds the slots of the unfinished processes in shard
     order.  A sweep steps each of them once, so in-domain processes
     advance concurrently too, and compacts the survivors stably; a sweep
     costs what it steps, and exactly one step per live process keeps
     the progress total. *)
  let sweep_shard d =
    let m = (n - d + domains - 1) / domains in
    let sh =
      {
        schedule = Array.make m [||];
        seg = Array.make m 0;
        left = Array.make m 0;
        name = Array.make m (-1);
        steps = Array.make m 0;
        rngs = Bytes.create (m * state_bytes);
      }
    in
    let live = Array.make m 0 in
    let count = ref 0 in
    for j = 0 to m - 1 do
      let pid = d + (j * domains) in
      sh.schedule.(j) <- schedule_of_pid pid;
      Stream.fork_into stream ~index:pid sh.rngs (j * state_bytes);
      enter_segment ~namespace sh j 0;
      if not (finished sh j) then begin
        live.(!count) <- j;
        incr count
      end
    done;
    let total = ref 0 in
    while !count > 0 && not (Atomic.get cancel) do
      let kept = ref 0 in
      for i = 0 to !count - 1 do
        let j = live.(i) in
        if step regs ~namespace sh j then begin
          live.(!kept) <- j;
          incr kept
        end
      done;
      total := !total + !count;
      count := !kept;
      Atomic.set progress.(d) !total
    done;
    sh
  in
  (* A shard that raises cancels the others, so none is left spinning,
     and hands its exception back through [Domain.join]'s result: joins
     never raise, so every domain is joined before [execute] re-raises
     the first failure in shard order. *)
  let run_shard d () =
    let outcome =
      match sweep_shard d with
      | shard -> Ok shard
      | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        Atomic.set cancel true;
        Error (e, bt)
    in
    Atomic.set done_flags.(d) true;
    outcome
  in
  let collect outcomes =
    Array.map (function Ok shard -> shard | Error (e, bt) -> Printexc.raise_with_backtrace e bt)
      outcomes
  in
  let t0 = Clock.now clock in
  let shards =
    match deadline with
    | None ->
      let handles = Array.init (domains - 1) (fun i -> Domain.spawn (run_shard (i + 1))) in
      let shard0 = run_shard 0 () in
      collect (Array.append [| shard0 |] (Array.map Domain.join handles))
    | Some deadline ->
      (* All shards run on spawned domains so this one is free to watch
         the clock; a livelocked run is cancelled cooperatively (workers
         poll [cancel] once per sweep) and reported with the per-domain
         step counts frozen at the timeout. *)
      let handles = Array.init domains (fun d -> Domain.spawn (run_shard d)) in
      let all_done () = Array.for_all Atomic.get done_flags in
      let rec watch () =
        if all_done () then ()
        else
          let elapsed = Clock.elapsed_since clock t0 in
          if elapsed >= deadline then begin
            let per_domain_steps = Array.map Atomic.get progress in
            let finished_domains =
              Array.fold_left (fun acc f -> if Atomic.get f then acc + 1 else acc) 0 done_flags
            in
            Atomic.set cancel true;
            Array.iter (fun h -> ignore (Domain.join h)) handles;
            raise
              (Stalled { deadline; elapsed; per_domain_steps; finished_domains; domains })
          end
          else begin
            (* Wall-clock watchdog on its own domain: every worker runs on
               a spawned domain, so nothing the scheduler multiplexes is
               behind this sleep.  lint: allow blocking-sleep *)
            Unix.sleepf 0.0005;
            watch ()
          end
      in
      watch ();
      collect (Array.map Domain.join handles)
  in
  let wall_seconds = Clock.elapsed_since clock t0 in
  let steps = Array.make n 0 in
  let names = Array.make n None in
  Array.iteri
    (fun d sh ->
      Array.iteri
        (fun j name ->
          let pid = d + (j * domains) in
          steps.(pid) <- sh.steps.(j);
          if name >= 0 then names.(pid) <- Some name)
        sh.name)
    shards;
  let result =
    {
      assignment = Renaming_shm.Assignment.make ~namespace names;
      steps;
      wall_seconds;
      domains;
    }
  in
  record_result obs result;
  result

let run_plan ?obs ?domains ?clock ?deadline ~n ~namespace plan ~seed =
  execute ?obs ?domains ?clock ?deadline ~n ~namespace ~schedule_of_pid:(fun _ -> plan) ~seed ()

let loose_geometric ?obs ?domains ?clock ?deadline ~n ~ell ~seed () =
  run_plan ?obs ?domains ?clock ?deadline ~n ~namespace:n (Plan.loose_geometric ~n ~ell) ~seed

let loose_clustered ?obs ?domains ?clock ?deadline ~n ~ell ~seed () =
  run_plan ?obs ?domains ?clock ?deadline ~n ~namespace:n (Plan.loose_clustered ~n ~ell ()) ~seed

let uniform_probing ?obs ?domains ?clock ?deadline ~n ~m ~seed () =
  if n < 1 || m < n then invalid_arg "Mc_run.uniform_probing: bad parameters";
  run_plan ?obs ?domains ?clock ?deadline ~n ~namespace:m (Plan.uniform_probing ~m ()) ~seed
