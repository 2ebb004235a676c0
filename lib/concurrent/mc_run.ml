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

(* A domain's block of processes, one slot per process in flat arrays,
   so a run allocates a few large arrays and no block per process.  Slot
   [j] is pid [lo + j].  [left.(j)] counts the steps left in segment
   [seg.(j)] of the plan (probes for a Probe; cells for a Sweep, whose
   cursor is [size - left]).  A process is finished once its [seg] has
   run off the plan, which is also where a winner is put.  Its generator
   state is the 32 bytes at [j * state_bytes] of [rngs].  [names] and
   [steps] are the run's result, indexed by pid and shared by every
   shard; a shard writes only its own block of them. *)
type shard = {
  plan : Plan.t;
  regs : Atomic_tas.t;
  names : int array;  (* the register won, or -1 while unnamed *)
  steps : int array;
  lo : int;
  seg : int array;
  left : int array;
  rngs : Bytes.t;
}

let state_bytes = Xoshiro.state_bytes

let finished sh j = sh.seg.(j) >= Array.length sh.plan

(* The plan's non-empty segments must lie in the namespace: checked once,
   before any domain starts, so no step can address a register outside
   it, whatever the draws. *)
let check_plan ~namespace plan =
  Array.iter
    (function
      | Plan.Probe { count; _ } when count <= 0 -> ()
      | Plan.Probe { base; size; _ } | Plan.Sweep { base; size } ->
        if size > 0 && (base < 0 || size > namespace - base) then
          invalid_arg
            (Printf.sprintf "Mc_run.execute: segment [%d, %d) is outside the namespace [0, %d)"
               base (base + size) namespace))
    plan

(* Move slot [j] to the first non-empty segment at or after [seg], or off
   the end of the plan. *)
let rec enter_segment sh j seg =
  sh.seg.(j) <- seg;
  if seg < Array.length sh.plan then
    match sh.plan.(seg) with
    | Plan.Probe { count; size; _ } when count <= 0 || size <= 0 -> enter_segment sh j (seg + 1)
    | Plan.Sweep { size; _ } when size <= 0 -> enter_segment sh j (seg + 1)
    | Plan.Probe { count; _ } -> sh.left.(j) <- count
    | Plan.Sweep { size; _ } -> sh.left.(j) <- size

(* One shared-memory step of the unfinished process in slot [j].
   Returns [true] if it is still unfinished afterwards. *)
let step sh j =
  let pid = sh.lo + j in
  let seg = sh.seg.(j) and left = sh.left.(j) in
  let target =
    match sh.plan.(seg) with
    | Plan.Probe { base; size; count = _ } ->
      base + Sample.uniform_int_at sh.rngs (j * state_bytes) size
    | Plan.Sweep { base; size } -> base + size - left
  in
  sh.left.(j) <- left - 1;
  sh.steps.(pid) <- sh.steps.(pid) + 1;
  if Atomic_tas.test_and_set sh.regs ~idx:target then begin
    sh.names.(pid) <- target;
    sh.seg.(j) <- Array.length sh.plan;
    false
  end
  else begin
    if left = 1 then enter_segment sh j (seg + 1);
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

let execute ?obs ?domains ?(clock = Clock.none) ?deadline ~n ~namespace ~plan ~seed () =
  if n < 0 then invalid_arg "Mc_run.execute: n must be non-negative";
  if namespace < 0 then invalid_arg "Mc_run.execute: namespace must be non-negative";
  let domains = match domains with Some d -> max 1 d | None -> recommended_domains () in
  (match deadline with
  | Some dl ->
    if dl <= 0. then invalid_arg "Mc_run.execute: deadline must be > 0";
    if Clock.label clock = Clock.label Clock.none then
      invalid_arg "Mc_run.execute: a deadline needs a ticking clock"
  | None -> ());
  check_plan ~namespace plan;
  let regs = Atomic_tas.create namespace in
  let stream = Stream.create seed in
  let names = Array.make n (-1) and steps = Array.make n 0 in
  (* Watchdog shared state: the workers publish progress, the watchdog
     publishes cancellation.  Everything crossing domains is Atomic. *)
  let cancel = Atomic.make false in
  let progress = Array.init domains (fun _ -> Atomic.make 0) in
  let done_flags = Array.init domains (fun _ -> Atomic.make false) in
  (* Domain [d] runs the pids of block [d], [\[d * block, (d + 1) * block)]
     cut at [n].  It builds that shard itself, so the stream forks run in
     parallel and each shard array is allocated by the domain that
     mutates it; the blocks are contiguous, so domains share a cache line
     of [names] or [steps] only at a block's edge.  The live set holds
     the slots of the unfinished processes in pid order.  A sweep steps
     each of them once, so in-domain processes advance concurrently too,
     and compacts the survivors stably; a sweep costs what it steps, and
     exactly one step per live process keeps the progress total. *)
  let block = (n + domains - 1) / domains in
  let run_shard d () =
    let lo = min n (d * block) in
    let m = min n (lo + block) - lo in
    let sh =
      {
        plan;
        regs;
        names;
        steps;
        lo;
        seg = Array.make m 0;
        left = Array.make m 0;
        rngs = Bytes.create (m * state_bytes);
      }
    in
    let live = Array.make m 0 in
    let count = ref 0 in
    for j = 0 to m - 1 do
      Stream.fork_into stream ~index:(lo + j) sh.rngs (j * state_bytes);
      enter_segment sh j 0;
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
        if step sh j then begin
          live.(!kept) <- j;
          incr kept
        end
      done;
      total := !total + !count;
      count := !kept;
      Atomic.set progress.(d) !total
    done;
    Atomic.set done_flags.(d) true
  in
  let t0 = Clock.now clock in
  (match deadline with
  | None ->
    let handles = Array.init (domains - 1) (fun i -> Domain.spawn (run_shard (i + 1))) in
    run_shard 0 ();
    Array.iter Domain.join handles
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
          Array.iter Domain.join handles;
          raise (Stalled { deadline; elapsed; per_domain_steps; finished_domains; domains })
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
    Array.iter Domain.join handles);
  let wall_seconds = Clock.elapsed_since clock t0 in
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

let loose_geometric ?obs ?domains ?clock ?deadline ~n ~ell ~seed () =
  execute ?obs ?domains ?clock ?deadline ~n ~namespace:n ~plan:(Plan.loose_geometric ~n ~ell) ~seed
    ()

let loose_clustered ?obs ?domains ?clock ?deadline ~n ~ell ~seed () =
  execute ?obs ?domains ?clock ?deadline ~n ~namespace:n
    ~plan:(Plan.loose_clustered ~n ~ell ())
    ~seed ()

let uniform_probing ?obs ?domains ?clock ?deadline ~n ~m ~seed () =
  if n < 1 || m < n then invalid_arg "Mc_run.uniform_probing: bad parameters";
  execute ?obs ?domains ?clock ?deadline ~n ~namespace:m ~plan:(Plan.uniform_probing ~m ()) ~seed
    ()
