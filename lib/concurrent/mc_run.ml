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

(* The per-step path, [sweep_live], calls no other module.  Dune's dev
   profile compiles every module with [-opaque], so a call across
   modules is never inlined and goes through [caml_applyN]: drawing
   through [Sample] and [Xoshiro] and setting the bit through a
   register-file module made four such calls a probe, and the step took
   about 5.5 ms of a ~7 ms two-domain Lemma 6 run (n = 65536).  So the
   plan is compiled to int columns before any domain starts, and the
   xoshiro256** step, the uniform draw and the test-and-test-and-set
   are [@inline] functions of this module.  On a two-vCPU host, in
   alternating pairs of e2e_bench's multicore workload, inlining the
   draw alone gained about 11% in runs per second, one-call versions of
   the draw and the TAS nothing, and the call-free loop 24% (132.4 to
   164.2 runs/s, medians of 10 pairs).  As [Xoshiro.mix] copies
   SplitMix64's step, [next_int63] and [draw_at] copy [Xoshiro]'s and
   [Sample]'s; test/test_concurrent.ml holds them to the originals, and
   the one-domain digests pin the loop. *)

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

(* The plan as int columns, one entry per segment, compiled once before
   any domain starts, so a step indexes ints and matches on nothing.
   [len.(s)] is the steps segment [s] takes (a Probe's count, a Sweep's
   size), 0 for an empty segment, which a process skips. *)
type columns = {
  sweep : bool array;  (* a Sweep; a Probe otherwise *)
  base : int array;
  size : int array;
  len : int array;
}

let compile plan =
  let k = Array.length plan in
  let ints () = Array.make k 0 in
  let c = { sweep = Array.make k false; base = ints (); size = ints (); len = ints () } in
  Array.iteri
    (fun s segment ->
      let base, size, len =
        match segment with
        | Plan.Probe { base; size; count } -> (base, size, if size > 0 then max 0 count else 0)
        | Plan.Sweep { base; size } ->
          c.sweep.(s) <- true;
          (base, size, max 0 size)
      in
      c.base.(s) <- base;
      c.size.(s) <- size;
      c.len.(s) <- len)
    plan;
  c

(* The plan's non-empty segments must lie in the namespace: checked once,
   before any domain starts, so no step can address a register outside
   it, whatever the draws. *)
let check_plan ~namespace c =
  Array.iteri
    (fun s len ->
      let base = c.base.(s) and size = c.size.(s) in
      if len > 0 && (base < 0 || size > namespace - base) then
        invalid_arg
          (Printf.sprintf "Mc_run.execute: segment [%d, %d) is outside the namespace [0, %d)" base
             (base + size) namespace))
    c.len

(* The first non-empty segment at or after [s], or [Array.length len]
   once the plan is spent. *)
let[@inline] next_segment len s =
  let s = ref s in
  while !s < Array.length len && len.(!s) = 0 do
    incr s
  done;
  !s

(* A domain's block of processes, one slot per process in flat arrays,
   so a run allocates a few large arrays and no block per process.  Slot
   [j] is pid [lo + j].  [left.(j)] counts the steps left in segment
   [seg.(j)] of the plan (probes for a Probe; cells for a Sweep, whose
   cursor is [size - left]).  Its generator state is the 32 bytes at
   [j * state_bytes] of [rngs].  [names] and [steps] are the run's
   result, indexed by pid and shared by every shard; a shard writes only
   its own block of them. *)
type shard = {
  cols : columns;
  regs : registers;
  names : int array;  (* the register won, or -1 while unnamed *)
  steps : int array;
  lo : int;
  seg : int array;
  left : int array;
  rngs : Bytes.t;
}

(* One sweep of the live set: one shared-memory step for each of the
   [count] live slots of [live], in order, keeping the survivors at the
   front of [live] in the same order.  Returns how many survive.  This
   is the per-step path: everything it uses is inlined, so the loop
   calls nothing but the CAS's runtime primitive.  A live slot [j] is
   below the shard's size, so its 32 bytes lie inside [rngs]. *)
let sweep_live sh live count =
  let { sweep; base; size; len } = sh.cols in
  let kept = ref 0 in
  for i = 0 to count - 1 do
    let j = live.(i) in
    let pid = sh.lo + j in
    let s = sh.seg.(j) and left = sh.left.(j) in
    let target =
      if sweep.(s) then base.(s) + size.(s) - left
      else base.(s) + draw_at sh.rngs (j * state_bytes) size.(s)
    in
    sh.steps.(pid) <- sh.steps.(pid) + 1;
    if test_and_set sh.regs target then sh.names.(pid) <- target
    else begin
      let s = if left > 1 then s else next_segment len (s + 1) in
      if s < Array.length len then begin
        sh.seg.(j) <- s;
        sh.left.(j) <- (if left > 1 then left - 1 else len.(s));
        live.(!kept) <- j;
        incr kept
      end
    end
  done;
  !kept

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
  let cols = compile plan in
  check_plan ~namespace cols;
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
     and compacts the survivors stably; a sweep costs what it steps, and
     exactly one step per live process keeps the progress total. *)
  let block = (n + domains - 1) / domains in
  let run_shard d () =
    let lo = min n (d * block) in
    let m = min n (lo + block) - lo in
    let sh =
      {
        cols;
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
      let s = next_segment cols.len 0 in
      if s < Array.length cols.len then begin
        sh.seg.(j) <- s;
        sh.left.(j) <- cols.len.(s);
        live.(!count) <- j;
        incr count
      end
    done;
    let total = ref 0 in
    while !count > 0 && not (Atomic.get cancel) do
      let kept = sweep_live sh live !count in
      total := !total + !count;
      count := kept;
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
