module Stream = Renaming_rng.Stream
module Xoshiro = Renaming_rng.Xoshiro
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

let () =
  Printexc.register_printer (function
    | Stalled { deadline; elapsed; per_domain_steps; finished_domains; domains } ->
      let steps =
        String.concat ", "
          (Array.to_list (Array.mapi (fun d s -> Printf.sprintf "d%d=%d" d s) per_domain_steps))
      in
      Some
        (Printf.sprintf
           "multicore run stalled: deadline %.3fs exceeded (elapsed %.3fs), %d/%d domains \
            finished, per-domain steps at timeout: [%s]"
           deadline elapsed finished_domains domains steps)
    | _ -> None)

let max_steps r = Array.fold_left max 0 r.steps

let unnamed_count r =
  Array.length r.assignment.Renaming_shm.Assignment.names
  - Renaming_shm.Assignment.named_count r.assignment

let recommended_domains () = max 1 (Domain.recommended_domain_count () - 1)

(* The per-step paths, [probe_sweep] and [cell_sweep], call no other
   module.  Dune's dev profile compiles every module with [-opaque], so
   a call across modules is never inlined and goes through
   [caml_applyN]: drawing through [Sample] and [Xoshiro] and setting the
   bit through a register-file module made four such calls a probe, and
   the step took about 5.5 ms of a ~7 ms two-domain Lemma 6 run
   (n = 65536).  So the xoshiro256** step, the uniform draw and the
   test-and-test-and-set are [@inline] functions of this module, and a
   sweep reads its segment's fields once, not once a step.  On a
   two-vCPU host, in alternating pairs of e2e_bench's multicore
   workload, inlining the draw alone gained about 11% in runs per
   second, one-call versions of the draw and the TAS nothing, and the
   call-free loop 24% (132.4 to 164.2 runs/s, medians of 10 pairs).  As
   [Xoshiro.mix] copies SplitMix64's step, [next_int63] and [draw_at]
   copy [Xoshiro]'s and [Sample]'s; test/test_concurrent.ml holds them
   to the originals, and the one-domain digests pin the loop. *)

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let state_bytes = Xoshiro.state_bytes

let[@inline] rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* [Xoshiro.next_int63_at] without its offset check: step the
   xoshiro256** state at byte [off] of [rngs] and return its output's
   top 62 bits.  The caller guarantees that the 32 bytes are inside
   [rngs]. *)
let[@inline] next_int63 rngs off =
  let s0 = get64 rngs off and s1 = get64 rngs (off + 8) in
  let s2 = Int64.logxor (get64 rngs (off + 16)) s0 in
  let s3 = Int64.logxor (get64 rngs (off + 24)) s1 in
  set64 rngs (off + 8) (Int64.logxor s1 s2);
  set64 rngs off (Int64.logxor s0 s3);
  set64 rngs (off + 16) (Int64.logxor s2 (Int64.shift_left s1 17));
  set64 rngs (off + 24) (rotl s3 45);
  Int64.to_int (Int64.shift_right_logical (Int64.mul (rotl (Int64.mul s1 5L) 7) 9L) 2)

(* [Sample.uniform_int]'s draw on the state at [off]: a power-of-two
   [bound] masks one output; any other rejects the outputs above the
   largest multiple of [bound] below 2^62 and takes the rest mod
   [bound]. *)
let[@inline] draw_at rngs off bound =
  if bound land (bound - 1) = 0 then next_int63 rngs off land (bound - 1)
  else begin
    let accept_max = max_int - (((max_int mod bound) + 1) mod bound) in
    let x = ref (next_int63 rngs off) in
    while !x > accept_max do
      x := next_int63 rngs off
    done;
    !x mod bound
  end

let draw rngs off bound =
  if bound <= 0 then invalid_arg "Mc_run.draw: bound must be positive";
  if off < 0 || off > Bytes.length rngs - state_bytes then
    invalid_arg "Mc_run.draw: offset outside the buffer";
  draw_at rngs off bound

let out_of_range idx namespace =
  invalid_arg (Printf.sprintf "Mc_run: register %d outside the namespace [0, %d)" idx namespace)

(* Register [i] is bit [i land 31] of word [i lsr 5], so a namespace of
   [m] names is [⌈m/32⌉] [Atomic] blocks; the last word's bits from [m]
   up are spare and never set. *)
type registers = { namespace : int; words : int Atomic.t array }

let registers namespace =
  if namespace < 0 then invalid_arg "Mc_run.registers: negative size";
  { namespace; words = Array.init ((namespace + 31) lsr 5) (fun _ -> Atomic.make 0) }

(* Test-and-test-and-set on register [idx]: a taken register is only
   read, so its line stays shared.  The CAS adds the bit to the word
   it read and is retried only while the bit is still clear, that is
   when another bit of the word changed meanwhile: lock-free, not
   wait-free (OCaml 5.1 has no atomic fetch-or).  One compare keeps
   [idx] below the namespace, so a spare bit is never set; a negative
   [idx] fails the word's bounds check. *)
let[@inline] test_and_set regs idx =
  if idx >= regs.namespace then out_of_range idx regs.namespace;
  let word = regs.words.(idx lsr 5) and bit = 1 lsl (idx land 31) in
  let won = ref false and trying = ref true in
  while !trying do
    let v = Atomic.get word in
    if v land bit <> 0 then trying := false
    else if Atomic.compare_and_set word v (v lor bit) then begin
      won := true;
      trying := false
    end
  done;
  !won

(* The plan's non-empty segments must lie in the namespace: checked once,
   before any domain starts, so no step can address a register outside
   it, whatever the draws. *)
let check_plan ~namespace plan =
  Array.iter
    (fun segment ->
      let base, size, empty =
        match segment with
        | Plan.Probe { base; size; count } -> (base, size, count <= 0)
        | Plan.Sweep { base; size } -> (base, size, false)
      in
      if size > 0 && (not empty) && (base < 0 || size > namespace - base) then
        invalid_arg
          (Printf.sprintf "Mc_run.execute: segment [%d, %d) is outside the namespace [0, %d)" base
             (base + size) namespace))
    plan

(* A domain's block of processes, one slot per process in flat arrays,
   so a run allocates a few large arrays and no block per process.  Slot
   [j] is pid [lo + j]; its generator state is the 32 bytes at
   [j * state_bytes] of [rngs].  [names] and [steps] are the run's
   result, indexed by pid and shared by every shard; a shard writes only
   its own block of them. *)
type shard = {
  regs : registers;
  names : int array;  (* the register won, or -1 while unnamed *)
  steps : int array;
  lo : int;
  rngs : Bytes.t;
}

(* Slot [j] wins register [name] at its [taken]th step. *)
let[@inline] win sh j name taken =
  sh.names.(sh.lo + j) <- name;
  sh.steps.(sh.lo + j) <- taken

(* The two sweeps, one per segment kind, are the per-step path.  Each
   steps the [count] live slots of [live] once, in order, keeps the
   losers at the front of [live] in the same order and returns how many
   lose; a winner wins at its [taken]th step.  Everything they use is
   inlined, so they call nothing but the CAS's runtime primitive.

   A Probe's sweep: each live slot draws a register of
   [\[base, base + size)] and TASes it.  A live slot [j] is below the
   shard's size, so its 32 bytes lie inside [rngs]. *)
let probe_sweep sh live count ~base ~size ~taken =
  let kept = ref 0 in
  for i = 0 to count - 1 do
    let j = live.(i) in
    let target = base + draw_at sh.rngs (j * state_bytes) size in
    if test_and_set sh.regs target then win sh j target taken
    else begin
      live.(!kept) <- j;
      incr kept
    end
  done;
  !kept

(* A Sweep's sweep: every live slot TASes [cell].  A register once set
   stays set, so only the first slot's TAS can win, and the others'
   would read the bit it leaves set: they lose without touching the
   register. *)
let cell_sweep sh live count ~cell ~taken =
  if test_and_set sh.regs cell then begin
    win sh live.(0) cell taken;
    for i = 1 to count - 1 do
      live.(i - 1) <- live.(i)
    done;
    count - 1
  end
  else count

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
  let regs = registers namespace in
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
     and compacts the survivors stably; exactly one step per live process
     keeps the progress total.  Every process starts at the plan's first
     step, so all the live ones of a shard always sit at the same plan
     position with the same steps taken: the shard walks the plan once,
     segment by segment, and [taken] counts those steps. *)
  let block = (n + domains - 1) / domains in
  let run_shard d () =
    let lo = min n (d * block) in
    let m = min n (lo + block) - lo in
    let sh = { regs; names; steps; lo; rngs = Bytes.create (m * state_bytes) } in
    let live = Array.make m 0 in
    for j = 0 to m - 1 do
      Stream.fork_into stream ~index:(lo + j) sh.rngs (j * state_bytes);
      live.(j) <- j
    done;
    let count = ref m and taken = ref 0 and total = ref 0 in
    (* Up to [len] sweeps, the [k]th made by [sweep k]; a segment stops
       early once no process is live or the run is cancelled. *)
    let segment len sweep =
      let k = ref 0 in
      while !k < len && !count > 0 && not (Atomic.get cancel) do
        incr taken;
        total := !total + !count;
        count := sweep !k;
        incr k;
        Atomic.set progress.(d) !total
      done
    in
    Array.iter
      (function
        | Plan.Probe { base; size; count = len } ->
          if size > 0 then
            segment len (fun _ -> probe_sweep sh live !count ~base ~size ~taken:!taken)
        | Plan.Sweep { base; size } ->
          segment size (fun k -> cell_sweep sh live !count ~cell:(base + k) ~taken:!taken))
      plan;
    (* The plan is spent: whoever is still live took every step of it. *)
    for i = 0 to !count - 1 do
      steps.(lo + live.(i)) <- !taken
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
