(* Tests for the counting-device applications: token dispenser, barrier,
   leader election. *)

module Dispenser = Renaming_apps.Token_dispenser
module Barrier = Renaming_apps.Barrier
module Leader = Renaming_apps.Leader
module Xoshiro = Renaming_rng.Xoshiro

let check = Alcotest.check

let test_dispenser_exact_capacity () =
  let rng = Xoshiro.create 1L in
  List.iter
    (fun capacity ->
      let d = Dispenser.create ~capacity () in
      let granted = ref 0 in
      (* Far more acquisition attempts than capacity. *)
      for pid = 0 to (3 * capacity) - 1 do
        match Dispenser.try_acquire d ~pid ~rng with
        | Some _ -> incr granted
        | None -> ()
      done;
      check Alcotest.int (Printf.sprintf "capacity %d granted exactly" capacity) capacity !granted;
      check Alcotest.bool "exhausted" true (Dispenser.try_acquire d ~pid:(3 * capacity) ~rng = None);
      check Alcotest.int "every token granted" capacity (Dispenser.granted d);
      match Dispenser.check_invariants d with
      | Ok () -> ()
      | Error e -> Alcotest.fail e)
    [ 1; 3; 16; 17; 100 ]

let test_dispenser_tokens_distinct () =
  let rng = Xoshiro.create 2L in
  let d = Dispenser.create ~capacity:50 () in
  let tokens = Hashtbl.create 64 in
  for pid = 0 to 49 do
    match Dispenser.try_acquire d ~pid ~rng with
    | Some g ->
      check Alcotest.bool "token fresh" false (Hashtbl.mem tokens g.Dispenser.token);
      Hashtbl.add tokens g.Dispenser.token ()
    | None -> Alcotest.fail "dispenser ran dry early"
  done;
  check Alcotest.int "50 distinct tokens" 50 (Hashtbl.length tokens)

let test_dispenser_device_count () =
  let d = Dispenser.create ~tau:16 ~capacity:100 () in
  check Alcotest.int "ceil(100/16) devices" 7 (Dispenser.device_count d)

let test_dispenser_small_tau () =
  let rng = Xoshiro.create 3L in
  let d = Dispenser.create ~tau:1 ~capacity:5 () in
  let granted = ref 0 in
  for pid = 0 to 9 do
    if Dispenser.try_acquire d ~pid ~rng <> None then incr granted
  done;
  check Alcotest.int "5 tokens via tau=1 devices" 5 !granted

let test_dispenser_validation () =
  Alcotest.check_raises "capacity 0"
    (Invalid_argument "Token_dispenser.create: capacity must be >= 1") (fun () ->
      ignore (Dispenser.create ~capacity:0 ()));
  Alcotest.check_raises "tau too big"
    (Invalid_argument "Token_dispenser.create: tau must be in [1, 31]") (fun () ->
      ignore (Dispenser.create ~tau:32 ~capacity:10 ()))

let test_dispenser_ledger_consistent () =
  (* The deterministic grant ledger must agree with the device state at
     every point of the dispenser's lifetime, not just at the end. *)
  let rng = Xoshiro.create 12L in
  let d = Dispenser.create ~capacity:40 () in
  let grants = ref 0 in
  for pid = 0 to 119 do
    (match Dispenser.try_acquire d ~pid ~rng with
    | Some _ -> incr grants
    | None -> ());
    match Dispenser.check_invariants d with
    | Ok () -> check Alcotest.int "ledger = granted" !grants (Dispenser.granted d)
    | Error e -> Alcotest.fail e
  done;
  check Alcotest.int "exhausted at capacity" 40 !grants

let test_barrier_releases_exactly_at_parties () =
  let rng = Xoshiro.create 4L in
  let b = Barrier.create ~parties:10 () in
  for pid = 0 to 8 do
    check Alcotest.bool "admitted" true (Barrier.arrive b ~pid ~rng);
    check Alcotest.bool "not yet released" false (Barrier.is_released b)
  done;
  check Alcotest.bool "10th admitted" true (Barrier.arrive b ~pid:9 ~rng);
  check Alcotest.bool "released" true (Barrier.is_released b);
  (* Spurious extra arrivals bounce off. *)
  check Alcotest.bool "11th rejected" false (Barrier.arrive b ~pid:10 ~rng);
  check Alcotest.int "count stays" 10 (Barrier.arrived b)

let test_leader_unique () =
  let l = Leader.create () in
  check Alcotest.(option int) "no leader yet" None (Leader.leader l);
  let winners = ref 0 in
  for pid = 0 to 9 do
    if Leader.compete l ~pid then incr winners
  done;
  check Alcotest.int "exactly one leader" 1 !winners;
  check Alcotest.bool "leader recorded" true (Leader.leader l <> None)

let test_leader_first_wins () =
  let l = Leader.create () in
  check Alcotest.bool "first competitor wins" true (Leader.compete l ~pid:7);
  check Alcotest.(option int) "leader is 7" (Some 7) (Leader.leader l);
  check Alcotest.bool "second loses" false (Leader.compete l ~pid:8)

let qcheck_dispenser_never_overshoots =
  QCheck.Test.make ~count:60 ~name:"dispenser never grants more than capacity"
    QCheck.(triple small_int (int_range 1 60) (int_range 1 31))
    (fun (seed, capacity, tau) ->
      let rng = Xoshiro.create (Int64.of_int seed) in
      let d = Dispenser.create ~tau ~capacity () in
      let granted = ref 0 in
      for pid = 0 to (2 * capacity) + 5 do
        if Dispenser.try_acquire d ~pid ~rng <> None then incr granted
      done;
      !granted = capacity && Dispenser.check_invariants d = Ok ())

let tests =
  [
    ( "apps",
      [
        Alcotest.test_case "dispenser exact capacity" `Quick test_dispenser_exact_capacity;
        Alcotest.test_case "dispenser distinct tokens" `Quick test_dispenser_tokens_distinct;
        Alcotest.test_case "dispenser device count" `Quick test_dispenser_device_count;
        Alcotest.test_case "dispenser tau=1" `Quick test_dispenser_small_tau;
        Alcotest.test_case "dispenser validation" `Quick test_dispenser_validation;
        Alcotest.test_case "dispenser ledger consistent" `Quick test_dispenser_ledger_consistent;
        Alcotest.test_case "barrier release" `Quick test_barrier_releases_exactly_at_parties;
        Alcotest.test_case "leader unique" `Quick test_leader_unique;
        Alcotest.test_case "leader first wins" `Quick test_leader_first_wins;
        QCheck_alcotest.to_alcotest qcheck_dispenser_never_overshoots;
      ] );
  ]
