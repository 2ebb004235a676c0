(* Tests for the OCaml 5 multicore backend: linearizable TAS and the
   domain-parallel algorithm runners. *)

module Mc_run = Renaming_concurrent.Mc_run
module Plan = Renaming_plan.Plan
module Assignment = Renaming_shm.Assignment
module Clock = Renaming_clock.Clock
module Stream = Renaming_rng.Stream
module Xoshiro = Renaming_rng.Xoshiro
module Sample = Renaming_rng.Sample

let check = Alcotest.check

(* The registers are the step loop's own: [Mc_run.test_and_set] is the
   TAS the loop inlines, range check included. *)
let test_tas_basics () =
  let t = Mc_run.registers 4 in
  check Alcotest.bool "win" true (Mc_run.test_and_set t 1);
  check Alcotest.bool "lose" false (Mc_run.test_and_set t 1);
  check Alcotest.(list bool) "neighbours free" [ true; true; true ]
    (List.map (Mc_run.test_and_set t) [ 0; 2; 3 ])

(* A lost TAS changes nothing: the won register stays won and the free
   neighbours stay free. *)
let test_tas_losing_leaves_owner () =
  let t = Mc_run.registers 3 in
  check Alcotest.bool "win" true (Mc_run.test_and_set t 1);
  for _ = 0 to 9 do
    check Alcotest.bool "lose" false (Mc_run.test_and_set t 1)
  done;
  check Alcotest.(list bool) "neighbours free" [ true; true ]
    (List.map (Mc_run.test_and_set t) [ 0; 2 ])

(* Registers share a word, so the TAS checks indices itself: the spare
   bits of the last word (70 to 95 here) are not registers. *)
let test_tas_range_check () =
  let t = Mc_run.registers 70 in
  check Alcotest.bool "last register" true (Mc_run.test_and_set t 69);
  List.iter
    (fun idx ->
      Alcotest.check_raises (string_of_int idx)
        (Invalid_argument (Printf.sprintf "Mc_run: register %d outside the namespace [0, 70)" idx))
        (fun () -> ignore (Mc_run.test_and_set t idx)))
    [ 70; 95 ];
  Alcotest.check_raises "-1" (Invalid_argument "index out of bounds") (fun () ->
      ignore (Mc_run.test_and_set t (-1)));
  check Alcotest.(list bool) "only the last register set" [ false; true; true ]
    (List.map (Mc_run.test_and_set t) [ 69; 0; 68 ]);
  Alcotest.check_raises "empty file has no register 0"
    (Invalid_argument "Mc_run: register 0 outside the namespace [0, 0)") (fun () ->
      ignore (Mc_run.test_and_set (Mc_run.registers 0) 0));
  Alcotest.check_raises "negative size" (Invalid_argument "Mc_run.registers: negative size")
    (fun () -> ignore (Mc_run.registers (-1)))

(* Domains race on [rounds] fresh files in turn, walking a file's
   registers in [order d]; a spin barrier starts each round together.
   Every register must be won exactly once, with the claims disjoint,
   and still be set after the join: a TAS of each then loses.  The
   last check catches a stale write that clears a neighbour's bit
   after that register's last TAS of the round. *)
let race_files ?(rounds = 1) ~size ~domains order =
  let files = Array.init rounds (fun _ -> Mc_run.registers size) in
  let arrived = Atomic.make 0 in
  let worker d () =
    Array.mapi
      (fun r t ->
        Atomic.incr arrived;
        while Atomic.get arrived < domains * (r + 1) do Domain.cpu_relax () done;
        List.filter (Mc_run.test_and_set t) (order d))
      files
  in
  let handles = Array.init (domains - 1) (fun d -> Domain.spawn (worker (d + 1))) in
  let w0 = worker 0 () in
  let all_wins = w0 :: Array.to_list (Array.map Domain.join handles) in
  Array.iteri
    (fun r t ->
      let claims = Array.make size 0 in
      List.iter (fun wins -> List.iter (fun idx -> claims.(idx) <- claims.(idx) + 1) wins.(r))
        all_wins;
      let label = Printf.sprintf "round %d: " r in
      check Alcotest.(list int) (label ^ "registers not won exactly once") []
        (List.filter (fun idx -> claims.(idx) <> 1) (List.init size Fun.id));
      check Alcotest.(list int) (label ^ "registers left clear") []
        (List.filter (Mc_run.test_and_set t) (List.init size Fun.id)))
    files

let test_tas_parallel_single_winner () =
  let size = 64 in
  race_files ~size ~domains:4 (fun _ -> List.init size Fun.id)

(* Opposite and interleaved walks of 70-register files, so the domains
   hit different bits of one word at once and a CAS can fail on a
   neighbour's bit: the retry path.  A TAS that gave up there instead
   would leave a register that no domain won. *)
let test_tas_contended_words () =
  let size = 70 in
  let up = List.init size Fun.id in
  let down = List.rev up in
  let evens, odds = List.partition (fun i -> i land 1 = 0) up in
  race_files ~rounds:500 ~size ~domains:2 (fun d -> if d = 0 then up else down);
  race_files ~rounds:500 ~size ~domains:2 (fun d -> if d = 0 then evens @ odds else odds @ evens);
  race_files ~rounds:50 ~size ~domains:4 (fun d ->
      match d with 0 -> up | 1 -> down | 2 -> odds @ evens | _ -> List.rev (evens @ odds));
  (* A namespace that is not a multiple of 32 on two domains. *)
  let r = Mc_run.uniform_probing ~domains:2 ~n:4099 ~m:4100 ~seed:9L () in
  check Alcotest.bool "n = 4099, m = 4100: complete" true
    (Assignment.is_complete r.Mc_run.assignment)

let test_tas_to_assignment () =
  (* Winning register 2 sets register 2 and nothing else. *)
  let t = Mc_run.registers 4 in
  check Alcotest.bool "win" true (Mc_run.test_and_set t 2);
  check Alcotest.bool "register 2 set" false (Mc_run.test_and_set t 2);
  check Alcotest.(list bool) "others free" [ true; true; true ]
    (List.map (Mc_run.test_and_set t) [ 0; 1; 3 ])

(* The step loop's draw is a copy of [Sample.uniform_int]: on the same
   forked state it returns the same values and leaves the same state,
   at a power-of-two bound (the mask), at another (one draw mod the
   bound) and at 2^61 + 1, where about half the draws are rejected, so
   the rejection loop runs.  It allocates nothing, and checks its
   arguments as [Sample] does. *)
let test_mc_draw_is_sample () =
  let stream = Stream.create 31L in
  List.iteri
    (fun index bound ->
      let buf = Bytes.make (3 * Xoshiro.state_bytes) '\x00' in
      Stream.fork_into stream ~index buf 32;
      let reference = Stream.fork stream ~index in
      let draws = 100_000 in
      for draw = 1 to draws do
        let want = Sample.uniform_int reference bound in
        let got = Mc_run.draw buf 32 bound in
        if got <> want then
          Alcotest.failf "bound %d, draw %d: %d, Sample gives %d" bound draw got want
      done;
      check Alcotest.int
        (Printf.sprintf "bound %d: the states agree after %d draws" bound draws)
        (Xoshiro.next_int63 reference) (Xoshiro.next_int63_at buf 32);
      let before = Gc.minor_words () in
      for _ = 1 to draws do
        ignore (Sys.opaque_identity (Mc_run.draw buf 32 bound))
      done;
      check (Alcotest.float 0.) (Printf.sprintf "bound %d: words allocated" bound) 0.
        (Gc.minor_words () -. before))
    [ 65536; 4100; (1 lsl 61) + 1 ];
  let buf = Bytes.create 40 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Mc_run.draw: bound must be positive")
    (fun () -> ignore (Mc_run.draw buf 0 0));
  List.iter
    (fun off ->
      Alcotest.check_raises
        (Printf.sprintf "offset %d" off)
        (Invalid_argument "Mc_run.draw: offset outside the buffer")
        (fun () -> ignore (Mc_run.draw buf off 16)))
    [ -1; 9; 40; max_int; min_int ]

let test_mc_loose_geometric () =
  let result = Mc_run.loose_geometric ~domains:4 ~n:4096 ~ell:2 ~seed:1L () in
  check Alcotest.bool "valid assignment" true (Assignment.is_valid result.Mc_run.assignment);
  check Alcotest.bool "some processes named" true
    (Assignment.named_count result.Mc_run.assignment > 4096 / 2);
  (* Step budget of Lemma 6. *)
  check Alcotest.bool "steps within budget" true (Mc_run.max_steps result <= 30)

let test_mc_loose_clustered () =
  let result = Mc_run.loose_clustered ~domains:4 ~n:4096 ~ell:1 ~seed:2L () in
  check Alcotest.bool "valid assignment" true (Assignment.is_valid result.Mc_run.assignment);
  check Alcotest.bool "mostly named" true
    (Mc_run.unnamed_count result < 4096 / 8)

let test_mc_uniform_probing_complete () =
  let result = Mc_run.uniform_probing ~domains:4 ~n:1024 ~m:2048 ~seed:3L () in
  check Alcotest.bool "valid" true (Assignment.is_valid result.Mc_run.assignment);
  check Alcotest.int "complete" 0 (Mc_run.unnamed_count result)

let test_mc_single_domain () =
  (* domains=1 must work (no spawns). *)
  let result = Mc_run.loose_geometric ~domains:1 ~n:512 ~ell:1 ~seed:4L () in
  check Alcotest.bool "valid" true (Assignment.is_valid result.Mc_run.assignment);
  check Alcotest.int "domains" 1 result.Mc_run.domains

(* On one domain nothing is concurrent, so a run is a pure function of
   its seed.  These counts pin the per-pid streams, the shard layout and
   the step loop: a change to any of them that reorders a probe moves
   them. *)
let test_mc_single_domain_deterministic () =
  let totals r = (Array.fold_left ( + ) 0 r.Mc_run.steps, Mc_run.unnamed_count r) in
  let steps, unnamed = totals (Mc_run.loose_geometric ~domains:1 ~n:1024 ~ell:2 ~seed:1L ()) in
  check Alcotest.int "loose geometric n=1024 seed 1: steps" 3536 steps;
  check Alcotest.int "loose geometric n=1024 seed 1: unnamed" 28 unnamed;
  let steps, unnamed = totals (Mc_run.loose_geometric ~domains:1 ~n:65536 ~ell:2 ~seed:7L ()) in
  check Alcotest.int "loose geometric n=65536 seed 7: steps" 229695 steps;
  check Alcotest.int "loose geometric n=65536 seed 7: unnamed" 2022 unnamed;
  let steps, unnamed = totals (Mc_run.uniform_probing ~domains:1 ~n:256 ~m:512 ~seed:3L ()) in
  check Alcotest.int "uniform probing n=256 m=512 seed 3: steps" 356 steps;
  check Alcotest.int "uniform probing n=256 m=512 seed 3: unnamed" 0 unnamed

(* The per-pid names and step counts themselves, as one digest of
   "name:steps," per pid with -1 for no name.  The digests were taken
   when names were [int option]s and domains ran every D-th pid, so they
   show that neither the result's representation nor the block layout
   moved a name or a step on one domain. *)
let test_mc_single_domain_digest () =
  let digest (r : Mc_run.result) =
    let b = Buffer.create (Array.length r.Mc_run.steps * 8) in
    Array.iteri
      (fun pid name -> Printf.bprintf b "%d:%d," name r.Mc_run.steps.(pid))
      r.Mc_run.assignment.Assignment.names;
    Digest.to_hex (Digest.string (Buffer.contents b))
  in
  let geometric ~n ~seed = digest (Mc_run.loose_geometric ~domains:1 ~n ~ell:2 ~seed ()) in
  check Alcotest.string "loose geometric n=65536 seed 7" "b0e618589e0fb4b07ef544a342b482c2"
    (geometric ~n:65536 ~seed:7L);
  check Alcotest.string "loose geometric n=1024 seed 1" "466294b0d91dddc8f8215c980221f257"
    (geometric ~n:1024 ~seed:1L);
  (* A namespace that is not a power of two: every draw is one output
     mod 4100 (pinned before the draw moved into the step loop). *)
  check Alcotest.string "uniform probing n=4099 m=4100 seed 9" "457adc0127b82baa7aa616467a05463e"
    (digest (Mc_run.uniform_probing ~domains:1 ~n:4099 ~m:4100 ~seed:9L ()))

(* Sweep-heavy schedules on one domain: one random probe, then a walk of
   the whole namespace, with empty segments in between.  Most steps are
   sweep steps, so these counts pin the sweep cursor, the segment
   transitions (empty ones included) and the order in which a domain
   visits its live processes. *)
let test_mc_single_domain_sweep_deterministic () =
  let run ~n ~namespace schedule seed =
    let r =
      Mc_run.execute ~domains:1 ~n ~namespace ~plan:schedule ~seed ()
    in
    check Alcotest.bool "valid" true (Assignment.is_valid r.Mc_run.assignment);
    (Array.fold_left ( + ) 0 r.Mc_run.steps, Mc_run.unnamed_count r)
  in
  let n = 1024 in
  let steps, unnamed =
    run ~n ~namespace:n
      [| Plan.Probe { base = 0; size = n; count = 1 }; Sweep { base = 0; size = n } |]
      11L
  in
  check Alcotest.int "probe 1 + sweep n=1024 seed 11: steps" 202317 steps;
  check Alcotest.int "probe 1 + sweep n=1024 seed 11: unnamed" 0 unnamed;
  let steps, unnamed =
    run ~n:300 ~namespace:256
      [|
        Plan.Probe { base = 0; size = 256; count = 0 };
        Sweep { base = 0; size = 0 };
        Probe { base = 128; size = 128; count = 2 };
        Sweep { base = 0; size = 0 };
        Sweep { base = 64; size = 128 };
        Probe { base = 0; size = 256; count = 0 };
      |]
      12L
  in
  check Alcotest.int "mixed empty segments seed 12: steps" 16588 steps;
  check Alcotest.int "mixed empty segments seed 12: unnamed" 109 unnamed

let test_mc_more_domains_than_processes () =
  (* [domains > n] leaves some shards empty; their domains must finish
     at once and the run must still name everyone. *)
  List.iter
    (fun (domains, clock, deadline) ->
      let r =
        Mc_run.execute ~domains ?clock ?deadline ~n:3 ~namespace:3
          ~plan:[| Plan.Sweep { base = 0; size = 3 } |]
          ~seed:13L ()
      in
      check Alcotest.bool "valid" true (Assignment.is_valid r.Mc_run.assignment);
      check Alcotest.int "all named" 0 (Mc_run.unnamed_count r);
      check Alcotest.int "steps per pid" 3 (Array.length r.Mc_run.steps);
      check Alcotest.int "domains" domains r.Mc_run.domains)
    [ (5, None, None); (4, Some (Clock.virtual_ ~step:0.001 ()), Some 1e6) ]

(* The plan is checked before any domain starts, segment by segment, so
   a segment no process would reach is rejected too: here every process
   wins in the first sweep, or livelocks in the first probe segment (the
   watchdog would report that as [Stalled] had any process stepped). *)
let test_mc_bad_plan_raises_up_front () =
  let unreachable =
    [| Plan.Sweep { base = 0; size = 4 }; Probe { base = 4; size = 4; count = 1 } |]
  in
  let livelock =
    [| Plan.Probe { base = 0; size = 1; count = max_int }; Sweep { base = 3; size = 2 } |]
  in
  List.iter
    (fun (label, clock, deadline, plan, namespace, message) ->
      Alcotest.check_raises label (Invalid_argument ("Mc_run.execute: segment " ^ message))
        (fun () ->
          ignore (Mc_run.execute ~domains:2 ?clock ?deadline ~n:2 ~namespace ~plan ~seed:14L ())))
    [
      ("unreachable", None, None, unreachable, 4, "[4, 8) is outside the namespace [0, 4)");
      ( "unreachable, watchdog",
        Some (Clock.virtual_ ()),
        Some 1e9,
        unreachable,
        4,
        "[4, 8) is outside the namespace [0, 4)" );
      ( "behind a livelock, watchdog",
        Some (Clock.virtual_ ()),
        Some 5.,
        livelock,
        1,
        "[3, 5) is outside the namespace [0, 1)" );
    ]

(* A segment reaching outside the namespace is rejected whatever the
   draws, first or later in the plan; an empty one is skipped. *)
let test_mc_segment_outside_namespace () =
  let cases =
    [
      ( [| Plan.Probe { base = 2; size = 8; count = 3 } |],
        "Mc_run.execute: segment [2, 10) is outside the namespace [0, 4)" );
      ( [| Plan.Sweep { base = -1; size = 2 } |],
        "Mc_run.execute: segment [-1, 1) is outside the namespace [0, 4)" );
      ( [|
          Plan.Probe { base = 0; size = 4; count = 1 };
          Sweep { base = 9; size = 0 };
          Sweep { base = 3; size = 2 };
        |],
        "Mc_run.execute: segment [3, 5) is outside the namespace [0, 4)" );
    ]
  in
  List.iter
    (fun (schedule, message) ->
      List.iter
        (fun domains ->
          for seed = 1 to 20 do
            Alcotest.check_raises
              (Printf.sprintf "%d domain(s), seed %d" domains seed)
              (Invalid_argument message)
              (fun () ->
                ignore
                  (Mc_run.execute ~domains ~n:8 ~namespace:4 ~plan:schedule
                     ~seed:(Int64.of_int seed) ()))
          done)
        [ 1; 2 ])
    cases;
  Alcotest.check_raises "negative n" (Invalid_argument "Mc_run.execute: n must be non-negative")
    (fun () ->
      ignore
        (Mc_run.execute ~domains:1 ~n:(-1) ~namespace:4 ~plan:[||] ~seed:1L ()))

(* A run allocates a few arrays per domain and nothing per process
   beyond their slots, the registers and the result: the live set, 32
   bytes of generator state, and the result's [names] and [steps], about
   7.2 words per process.  The measure is minor words plus major-heap
   words, so a block that the minor collector promotes counts twice: one
   record per process (about 43 words per process by this measure)
   cannot hide under the floor, nor can a boxed name per process (the
   [int option] result read about 16), nor one more slot per process. *)
let test_mc_allocation_floor () =
  let n = 65_536 in
  let words () =
    let s = Gc.quick_stat () in
    s.Gc.minor_words +. s.Gc.major_words
  in
  (* Empty the minor heap first, so that a collection during the run
     promotes only what the run allocated, not what earlier tests left. *)
  Gc.minor ();
  let before = words () in
  let r = Mc_run.loose_geometric ~domains:1 ~n ~ell:2 ~seed:7L () in
  let per_process = (words () -. before) /. float_of_int n in
  check Alcotest.int "the run completed" n (Array.length r.Mc_run.steps);
  check Alcotest.bool
    (Printf.sprintf "%.1f words per process <= 8" per_process)
    true (per_process <= 8.)

let test_mc_steps_recorded () =
  let result = Mc_run.uniform_probing ~domains:2 ~n:256 ~m:512 ~seed:5L () in
  let nonzero = Array.for_all (fun s -> s > 0) result.Mc_run.steps in
  check Alcotest.bool "every process took steps" true nonzero

let test_mc_repeated_runs_sound () =
  (* Soundness across repeated runs and domain counts: no run may ever
     hand out a duplicate name, uniform probing with [m >= n] must fully
     cover, and a process holding a name must have taken at least one
     step (a name with zero recorded steps would mean the backend
     assigned it out of thin air). *)
  let assert_named_stepped label result =
    Array.iteri
      (fun pid name ->
        if name <> -1 then
          check Alcotest.bool
            (Printf.sprintf "%s: named pid %d took steps" label pid)
            true
            (result.Mc_run.steps.(pid) >= 1))
      result.Mc_run.assignment.Assignment.names
  in
  List.iter
    (fun domains ->
      List.iter
        (fun seed ->
          let label = Printf.sprintf "d%d/s%Ld" domains seed in
          let probing = Mc_run.uniform_probing ~domains ~n:192 ~m:192 ~seed () in
          check Alcotest.bool (label ^ ": probing no duplicate names") true
            (Assignment.is_valid probing.Mc_run.assignment);
          check Alcotest.int (label ^ ": probing m=n fully covers") 0
            (Mc_run.unnamed_count probing);
          assert_named_stepped (label ^ "/probing") probing;
          let loose = Mc_run.loose_geometric ~domains ~n:192 ~ell:2 ~seed () in
          check Alcotest.bool (label ^ ": loose no duplicate names") true
            (Assignment.is_valid loose.Mc_run.assignment);
          assert_named_stepped (label ^ "/loose") loose)
        [ 21L; 22L; 23L ])
    [ 2; 3 ]

let test_recommended_domains_positive () =
  check Alcotest.bool "at least one" true (Mc_run.recommended_domains () >= 1)

(* --- the stress watchdog --- *)

(* Every process probes the single register forever: one wins and
   retires, the rest are livelocked.  [count] is effectively infinite
   relative to any deadline. *)
let livelock_plan = [| Plan.Probe { base = 0; size = 1; count = max_int } |]

let test_watchdog_stalls_livelocked_run () =
  (* A unit-step virtual clock makes the deadline trip after a handful
     of watchdog polls, independent of real time. *)
  match
    Mc_run.execute ~domains:2 ~clock:(Clock.virtual_ ()) ~deadline:5.0 ~n:4 ~namespace:1
      ~plan:livelock_plan ~seed:1L ()
  with
  | _ -> Alcotest.fail "livelocked run terminated"
  | exception Mc_run.Stalled { deadline; elapsed; per_domain_steps; finished_domains; domains } ->
    check (Alcotest.float 1e-9) "deadline recorded" 5.0 deadline;
    check Alcotest.bool "elapsed past deadline" true (elapsed >= deadline);
    check Alcotest.int "per-domain diagnostic" 2 (Array.length per_domain_steps);
    check Alcotest.int "domains" 2 domains;
    check Alcotest.bool "not all domains finished" true (finished_domains < 2)

let test_watchdog_diagnostic_renders () =
  match
    Mc_run.execute ~domains:2 ~clock:(Clock.virtual_ ()) ~deadline:3.0 ~n:4 ~namespace:1
      ~plan:livelock_plan ~seed:2L ()
  with
  | _ -> Alcotest.fail "livelocked run terminated"
  | exception (Mc_run.Stalled _ as e) ->
    let s = Printexc.to_string e in
    List.iter
      (fun fragment ->
        let nh = String.length s and nn = String.length fragment in
        let rec at i = i + nn <= nh && (String.sub s i nn = fragment || at (i + 1)) in
        check Alcotest.bool ("diagnostic mentions " ^ fragment) true (at 0))
      [ "stalled"; "deadline"; "domains finished"; "d0="; "d1=" ]

let test_watchdog_passes_healthy_run () =
  (* A terminating run under a generous deadline completes normally and
     still reports clock-measured wall time. *)
  let result =
    Mc_run.loose_geometric ~domains:2 ~clock:(Clock.virtual_ ~step:0.001 ()) ~deadline:1e6 ~n:256
      ~ell:2 ~seed:3L ()
  in
  check Alcotest.bool "valid assignment" true (Assignment.is_valid result.Mc_run.assignment);
  check Alcotest.int "domains" 2 result.Mc_run.domains;
  check Alcotest.bool "wall time measured" true (result.Mc_run.wall_seconds > 0.)

let test_watchdog_parameter_validation () =
  let run ?clock ?deadline () =
    ignore
      (Mc_run.execute ?clock ?deadline ~domains:1 ~n:2 ~namespace:2
         ~plan:[| Plan.Sweep { base = 0; size = 2 } |]
         ~seed:4L ())
  in
  Alcotest.check_raises "deadline without a clock"
    (Invalid_argument "Mc_run.execute: a deadline needs a ticking clock") (fun () ->
      run ~deadline:1.0 ());
  Alcotest.check_raises "non-positive deadline"
    (Invalid_argument "Mc_run.execute: deadline must be > 0") (fun () ->
      run ~clock:(Clock.virtual_ ()) ~deadline:0. ())

let tests =
  [
    ( "concurrent",
      [
        Alcotest.test_case "atomic tas basics" `Quick test_tas_basics;
        Alcotest.test_case "losing tas leaves owner" `Quick test_tas_losing_leaves_owner;
        Alcotest.test_case "tas range check" `Quick test_tas_range_check;
        Alcotest.test_case "parallel single winner" `Quick test_tas_parallel_single_winner;
        Alcotest.test_case "contended tas words" `Quick test_tas_contended_words;
        Alcotest.test_case "to assignment" `Quick test_tas_to_assignment;
        Alcotest.test_case "mc draw is Sample.uniform_int" `Quick test_mc_draw_is_sample;
        Alcotest.test_case "mc loose geometric" `Quick test_mc_loose_geometric;
        Alcotest.test_case "mc loose clustered" `Quick test_mc_loose_clustered;
        Alcotest.test_case "mc probing complete" `Quick test_mc_uniform_probing_complete;
        Alcotest.test_case "mc single domain" `Quick test_mc_single_domain;
        Alcotest.test_case "mc single domain deterministic" `Quick
          test_mc_single_domain_deterministic;
        Alcotest.test_case "mc single domain digest" `Quick test_mc_single_domain_digest;
        Alcotest.test_case "mc single domain sweep deterministic" `Quick
          test_mc_single_domain_sweep_deterministic;
        Alcotest.test_case "mc more domains than processes" `Quick
          test_mc_more_domains_than_processes;
        Alcotest.test_case "mc bad plan raises up front" `Quick test_mc_bad_plan_raises_up_front;
        Alcotest.test_case "mc segment outside the namespace" `Quick
          test_mc_segment_outside_namespace;
        Alcotest.test_case "mc allocation floor" `Quick test_mc_allocation_floor;
        Alcotest.test_case "mc steps recorded" `Quick test_mc_steps_recorded;
        Alcotest.test_case "mc repeated runs sound" `Quick test_mc_repeated_runs_sound;
        Alcotest.test_case "recommended domains" `Quick test_recommended_domains_positive;
        Alcotest.test_case "watchdog stalls a livelocked run" `Quick
          test_watchdog_stalls_livelocked_run;
        Alcotest.test_case "watchdog diagnostic renders" `Quick test_watchdog_diagnostic_renders;
        Alcotest.test_case "watchdog passes a healthy run" `Quick test_watchdog_passes_healthy_run;
        Alcotest.test_case "watchdog parameter validation" `Quick
          test_watchdog_parameter_validation;
      ] );
  ]
