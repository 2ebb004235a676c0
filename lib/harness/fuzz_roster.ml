module Fuzz = Renaming_fuzz.Fuzz
module Monitor = Renaming_faults.Monitor
module Target = Renaming_faults.Target
module Executor = Renaming_sched.Executor
module Memory = Renaming_sched.Memory
module Program = Renaming_sched.Program
module Tau_register = Renaming_device.Tau_register
module Stream = Renaming_rng.Stream

let target ?(allow_faults = false) ?(allow_crashes = false) ?(tau_cadence = 1)
    ?(expect_violation = false) target =
  {
    Fuzz.fz_target = target;
    fz_allow_faults = allow_faults;
    fz_allow_crashes = allow_crashes;
    fz_tau_cadence = tau_cadence;
    fz_max_ticks = 50_000;
    fz_expect_violation = expect_violation;
  }

let mutant ?allow_crashes ?tau_cadence ~name ~n ~mode build =
  target ?allow_crashes ?tau_cadence ~expect_violation:true { Target.name; n; mode; build }

(* --- seeded mutants: deliberately broken programs whose bugs need an
   adversarial schedule.  Each is clean under the fair round-robin
   baseline (so the plain test suite cannot see the bug) and breaks only
   under a rare interleaving of bounded depth — the fuzzing analogue of
   `renaming analyze --inject broken-footprint`. --- *)

(* Double-claim in the loose-geometric probe path: the prober "optimises"
   a probe into read-then-TAS and trusts the read — if the register
   looked free, it claims the name without checking that its own TAS
   actually won.  Clean until some other process's TAS lands between the
   read and the TAS (bug depth 2: one preemption of the buggy process at
   one specific point). *)
let mutant_double_claim ~seed:_ =
  let n = 3 in
  let memory = Memory.create ~namespace:n () in
  let open Program.Syntax in
  let buggy_prober =
    (* read 0; if free, TAS 0 and claim it regardless of the answer *)
    let* taken = Program.read_name 0 in
    if taken then Program.scan_names ~first:1 ~count:(n - 1)
    else
      let* _won = Program.tas_name 0 in
      Program.return (Some 0)
  in
  let rival =
    (* parks one yield, then races for register 0 the honest way *)
    let* () = Program.yield in
    let* won = Program.tas_name 0 in
    if won then Program.return (Some 0) else Program.scan_names ~first:1 ~count:(n - 1)
  in
  (* The leading yield keeps the honest process alive through the race
     window: round-robin here cycles over *runnable indices*, so a
     process finishing early shifts everyone else's turn order, and
     without the yield that shift alone lets the rival's TAS beat the
     prober's.  With it, the fair baseline is clean and the bug needs a
     genuine depth-2 preemption of the prober between its read and TAS. *)
  let honest =
    let* () = Program.yield in
    Program.scan_names ~first:2 ~count:1
  in
  { Executor.memory; programs = [| buggy_prober; rival; honest |]; label = "mutant-double-claim" }

(* τ-device over-admit: the τ-register protocol admits at most τ
   processes through the counting device, which is what guarantees every
   admitted process a name slot.  The mutant polls once and treats
   [Pending] as admission; when the schedule lets both processes submit
   and poll before their device cycles run, τ+1 processes enter the
   slot scan, and the loser "knows" the guarantee holds — so it claims
   the slot anyway (bug depth 1, but invisible to round-robin, whose
   interleaving always resolves the polls). *)
let mutant_tau_over_admit ~seed:_ =
  let n = 2 in
  let tau = Tau_register.create ~tau:1 ~width:2 () in
  let memory = Memory.create ~namespace:2 ~taus:[| tau |] ~processes:n () in
  let open Program.Syntax in
  let program pid =
    let* () = Program.tau_submit ~reg:0 ~bit:pid in
    let* answer = Program.tau_poll 0 in
    let admitted = answer <> Tau_register.Lost_bit in
    if admitted then
      (* scan the τ slot slice; "cannot fail" for a real admittee *)
      let* slot = Program.scan_names ~first:0 ~count:1 in
      match slot with
      | Some s -> Program.return (Some s)
      | None -> Program.return (Some 0) (* the over-admitted loser's unbacked claim *)
    else
      let* won = Program.tas_name 1 in
      Program.return (if won then Some 1 else None)
  in
  {
    Executor.memory;
    programs = Executor.init_programs n program;
    label = "mutant-tau-over-admit";
  }

(* Dropped straggler in the Combined shape: stragglers register in the
   backup extension by incrementing a shared counter and taking the
   extension slot it indexes.  The mutant keeps the lost-update race
   (read and increment are separate steps) and, worse, trusts the
   reservation: the TAS on the computed slot is executed but its answer
   ignored.  Two stragglers whose read-increment windows interleave
   compute the same slot and both claim it.  The second straggler
   arrives late (yields first), so round-robin serialises the windows
   and stays clean (bug depth 2). *)
let mutant_dropped_straggler ~seed:_ =
  let memory = Memory.create ~namespace:4 ~words:1 () in
  let open Program.Syntax in
  let main_winner =
    let* won = Program.tas_name 0 in
    if won then Program.return (Some 0) else Program.scan_names ~first:1 ~count:3
  in
  let straggler ~late =
    let rec yields k = if k = 0 then Program.return () else Program.bind Program.yield (fun () -> yields (k - 1)) in
    let* () = yields (if late then 4 else 0) in
    let* c = Program.read_word 0 in
    let* () = Program.write_word ~idx:0 ~value:(c + 1) in
    let slot = 2 + min c 1 in
    let* _won = Program.tas_name slot in
    Program.return (Some slot)
  in
  {
    Executor.memory;
    programs = [| main_winner; straggler ~late:false; straggler ~late:true |];
    label = "mutant-dropped-straggler";
  }

(* Every clean target routes namespace traffic through the fault-aware
   retry primitives, so fault mutations are sound; crash-recovery
   soundness is covered by the chaos campaign, so crash injection is
   enabled too. *)
let clean () =
  [
    target ~allow_faults:true ~allow_crashes:true Targets.loose_geometric_n4;
    (* Lease-handoff fencing (Renaming_service.Handoff): the returned
       name is guarded by aux-register locks, not a namespace TAS;
       uniqueness of the returned name is the property under test. *)
    target ~allow_faults:true ~allow_crashes:true Targets.lease_handoff_n4;
    (* Slice-handoff fencing (Renaming_service.Shard_handoff): the
       router's slice-transfer core — every name of the old epoch is
       fenced by a settle-lock TAS before the epoch bumps and the new
       epoch regrants.  Property: global uniqueness across epochs. *)
    target ~allow_faults:true ~allow_crashes:true Targets.shard_handoff_n4;
    (* At-most-once dedup eviction fencing (Renaming_service.Net_dedup):
       duplicate deliveries of one rid race a fenced evictor; the
       property is that the rid's name is granted by exactly one
       delivery across both dedup epochs. *)
    target ~allow_faults:true ~allow_crashes:true Targets.net_dedup_n4;
    target ~allow_faults:true ~allow_crashes:true
      {
        Target.name = "combined-geometric-n8";
        n = 8;
        mode = Monitor.Tas;
        build =
          (fun ~seed ->
            Renaming_core.Combined.instance
              { Renaming_core.Combined.n = 8; variant = Renaming_core.Combined.Geometric { ell = 2 } }
              ~stream:(Stream.create seed));
      };
    target ~allow_faults:true ~allow_crashes:true Targets.uniform_probing_n3;
    target ~allow_faults:true ~allow_crashes:true Targets.linear_scan_n4;
    (* Grant/reclaim announce model (Renaming_refine.Grant_model): every
       protocol action is self-reported on the announce word, so this is
       the one target whose whole observable behaviour the refinement
       checker sees verbatim.  Settle locks make it legal under every
       schedule and crash.  Transient faults stay off: a faulted
       announce write silently drops an event, and refining an
       incomplete observable trace is meaningless (the spec would blame
       the next legitimate event). *)
    target ~allow_crashes:true Targets.refine_grant_n2;
  ]

let mutants () =
  [
    mutant ~name:"mutant-double-claim" ~n:3 ~mode:Monitor.Tas mutant_double_claim;
    mutant ~name:"mutant-tau-over-admit" ~n:2 ~mode:Monitor.Tas ~tau_cadence:3
      mutant_tau_over_admit;
    mutant ~name:"mutant-dropped-straggler" ~n:3 ~mode:Monitor.Tas mutant_dropped_straggler;
    (* Stale-write handoff: the holder validates its lease by re-reading
       the epoch register instead of taking the settle lock — the
       time-of-check/time-of-use bug epoch fencing exists to prevent.
       Round-robin resolves the race benignly; a priority schedule that
       parks the reclaimer until the holder's validation read, then lets
       the claimant commit at the next epoch, yields a double grant. *)
    mutant ~name:"mutant-lease-stale-write" ~n:3 ~mode:Monitor.Returns (fun ~seed ->
        Renaming_service.Handoff.instance_stale_write ~n:3 ~seed);
    (* Unfenced slice handoff: the taker hands the slice to the next
       epoch after merely *reading* the old epoch's settle locks — the
       slice moves without the coupled fence.  An owner parked in its
       hold window still commits at the old epoch while the published
       transfer-freedom flag lets the new epoch regrant the same name:
       a cross-epoch double grant reachable at preemption depth 2. *)
    mutant ~name:"mutant-shard-unfenced-handoff" ~n:3 ~mode:Monitor.Returns (fun ~seed ->
        Renaming_service.Shard_handoff.instance_unfenced ~n:3 ~seed);
    (* Unfenced dedup eviction: the evictor *reads* the settle lock
       instead of TASing it, then evicts the rid's dedup entry while a
       duplicate delivery is still parked in its hold window — the
       old-epoch commit and the new-epoch re-execution both grant the
       same name.  Clean under fair round-robin (the evictor parks past
       the original's commit); the double grant needs a preemption
       inside the hold window. *)
    mutant ~name:"mutant-net-dedup-evict" ~n:3 ~mode:Monitor.Returns (fun ~seed ->
        Renaming_service.Net_dedup.instance_evict ~n:3 ~seed);
    (* Post-reclaim double grant: the reclaimer announces the reclaim
       and then re-announces the grant for a session that never
       re-invoked.  No name is ever double-held in memory, and the fair
       baseline is clean (clients settle before the reclaimer's sweep);
       only the spec, fed the announce stream, can flag it. *)
    mutant ~name:"mutant-refine-regrant" ~n:2 ~mode:Monitor.Announce ~allow_crashes:true
      (fun ~seed -> Renaming_refine.Grant_model.instance_regrant ~n:2 ~seed);
  ]

let roster () = clean () @ mutants ()
