module Stream = Renaming_rng.Stream
module Sample = Renaming_rng.Sample
module Clock = Renaming_clock.Clock
module Obs = Renaming_obs.Obs
module Metrics = Renaming_obs.Metrics

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

(* A process's life is a sequence of segments: random probes into a
   register range, or a deterministic sweep of a range. *)
type segment =
  | Probe of { base : int; size : int; count : int }
  | Sweep of { base : int; size : int }

type proc = {
  pid : int;
  rng : Renaming_rng.Xoshiro.t;
  schedule : segment array;
  mutable seg : int;
  mutable budget : int;  (* probes left in the current Probe segment *)
  mutable cursor : int;  (* position in the current Sweep segment *)
  mutable name : int;  (* the register won, or -1 while unnamed *)
  mutable steps : int;
  mutable finished : bool;
}

let enter_segment p =
  if p.seg >= Array.length p.schedule then p.finished <- true
  else
    match p.schedule.(p.seg) with
    | Probe { count; _ } -> p.budget <- count
    | Sweep _ -> p.cursor <- 0

(* One shared-memory step (or retirement).  Returns [true] if the
   process is still active afterwards. *)
let rec step regs p =
  if p.finished then false
  else
    match p.schedule.(p.seg) with
    | Probe { base; size; count = _ } ->
      if p.budget = 0 then begin
        p.seg <- p.seg + 1;
        enter_segment p;
        step regs p
      end
      else begin
        p.budget <- p.budget - 1;
        let target = base + Sample.uniform_int p.rng size in
        p.steps <- p.steps + 1;
        if Atomic_tas.test_and_set regs ~idx:target ~pid:p.pid then begin
          p.name <- target;
          p.finished <- true;
          false
        end
        else true
      end
    | Sweep { base; size } ->
      if p.cursor >= size then begin
        p.seg <- p.seg + 1;
        enter_segment p;
        step regs p
      end
      else begin
        let target = base + p.cursor in
        p.cursor <- p.cursor + 1;
        p.steps <- p.steps + 1;
        if Atomic_tas.test_and_set regs ~idx:target ~pid:p.pid then begin
          p.name <- target;
          p.finished <- true;
          false
        end
        else true
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
  let domains = match domains with Some d -> max 1 d | None -> recommended_domains () in
  (match deadline with
  | Some dl ->
    if dl <= 0. then invalid_arg "Mc_run.execute: deadline must be > 0";
    if Clock.label clock = Clock.label Clock.none then
      invalid_arg "Mc_run.execute: a deadline needs a ticking clock"
  | None -> ());
  let regs = Atomic_tas.create namespace in
  let stream = Stream.create seed in
  let make_proc pid =
    let p =
      {
        pid;
        rng = Stream.fork stream ~index:pid;
        schedule = schedule_of_pid pid;
        seg = 0;
        budget = 0;
        cursor = 0;
        name = -1;
        steps = 0;
        finished = false;
      }
    in
    enter_segment p;
    p
  in
  (* Domain [d] runs pids [d], [d + domains], [d + 2 * domains], ... *)
  let shards =
    Array.init domains (fun d ->
        Array.init ((n - d + domains - 1) / domains) (fun i -> make_proc (d + (i * domains))))
  in
  (* Watchdog shared state: the workers publish progress, the watchdog
     publishes cancellation.  Everything crossing domains is Atomic. *)
  let cancel = Atomic.make false in
  let progress = Array.init domains (fun _ -> Atomic.make 0) in
  let done_flags = Array.init domains (fun _ -> Atomic.make false) in
  let run_shard d shard () =
    (* Interleave the shard's processes one step at a time so in-domain
       processes advance concurrently too. *)
    let active = ref (Array.length shard) in
    while !active > 0 && not (Atomic.get cancel) do
      active := 0;
      Array.iter (fun p -> if step regs p then incr active) shard;
      Atomic.set progress.(d) (Array.fold_left (fun acc p -> acc + p.steps) 0 shard)
    done;
    Atomic.set progress.(d) (Array.fold_left (fun acc p -> acc + p.steps) 0 shard);
    Atomic.set done_flags.(d) true
  in
  let t0 = Clock.now clock in
  (match deadline with
  | None ->
    let handles =
      Array.init (domains - 1) (fun i -> Domain.spawn (run_shard (i + 1) shards.(i + 1)))
    in
    run_shard 0 shards.(0) ();
    Array.iter Domain.join handles
  | Some deadline ->
    (* All shards run on spawned domains so this one is free to watch
       the clock; a livelocked run is cancelled cooperatively (workers
       poll [cancel] once per sweep) and reported with the per-domain
       step counts frozen at the timeout. *)
    let handles = Array.init domains (fun d -> Domain.spawn (run_shard d shards.(d))) in
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
    Array.iter Domain.join handles);
  let wall_seconds = Clock.elapsed_since clock t0 in
  let steps = Array.make n 0 in
  let names = Array.make n None in
  Array.iter
    (Array.iter (fun p ->
         steps.(p.pid) <- p.steps;
         if p.name >= 0 then names.(p.pid) <- Some p.name))
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

let pow2 e =
  let rec go acc e = if e = 0 then acc else go (acc * 2) (e - 1) in
  go 1 e

let log2_ceil n =
  let rec go acc p = if p >= n then acc else go (acc + 1) (p * 2) in
  go 0 1

let loglog_ceil n = max 1 (log2_ceil (max 2 (log2_ceil n)))

let logloglog_ceil n = max 1 (log2_ceil (max 2 (loglog_ceil n)))

let loose_geometric ?obs ?domains ?clock ?deadline ~n ~ell ~seed () =
  if n < 4 || ell < 1 then invalid_arg "Mc_run.loose_geometric: bad parameters";
  let rounds = ell * logloglog_ceil n in
  let schedule =
    Array.init rounds (fun i -> Probe { base = 0; size = n; count = pow2 (i + 1) })
  in
  execute ?obs ?domains ?clock ?deadline ~n ~namespace:n ~schedule_of_pid:(fun _ -> schedule)
    ~seed ()

let loose_clustered ?obs ?domains ?clock ?deadline ~n ~ell ~seed () =
  if n < 4 || ell < 1 then invalid_arg "Mc_run.loose_clustered: bad parameters";
  let phases = loglog_ceil n in
  let per_phase = 2 * ell * loglog_ceil n in
  let schedule = Array.make phases (Probe { base = 0; size = n; count = per_phase }) in
  let base = ref 0 in
  for j = 1 to phases do
    let size = if j = phases then n - !base else max 1 (n / pow2 j) in
    schedule.(j - 1) <- Probe { base = !base; size; count = per_phase };
    base := !base + size
  done;
  execute ?obs ?domains ?clock ?deadline ~n ~namespace:n ~schedule_of_pid:(fun _ -> schedule)
    ~seed ()

let uniform_probing ?obs ?domains ?clock ?deadline ~n ~m ~seed () =
  if n < 1 || m < n then invalid_arg "Mc_run.uniform_probing: bad parameters";
  let schedule = [| Probe { base = 0; size = m; count = 4 * m }; Sweep { base = 0; size = m } |] in
  execute ?obs ?domains ?clock ?deadline ~n ~namespace:m ~schedule_of_pid:(fun _ -> schedule)
    ~seed ()
