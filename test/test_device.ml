(* Tests for the counting device (the paper's lines 1-14) and the
   tau-register protocol layer. *)

module Device = Renaming_device.Counting_device
module Tau = Renaming_device.Tau_register
module Word = Renaming_bitops.Word
module Memory = Renaming_sched.Memory
module Op = Renaming_sched.Op
module Params = Renaming_core.Params

let check = Alcotest.check

let outcome =
  Alcotest.testable
    (fun fmt -> function
      | Device.Lost -> Format.fprintf fmt "Lost"
      | Device.Confirmed -> Format.fprintf fmt "Confirmed"
      | Device.Revoked -> Format.fprintf fmt "Revoked")
    ( = )

let test_create_validation () =
  Alcotest.check_raises "bad width" (Invalid_argument "Counting_device.create: bad width")
    (fun () -> ignore (Device.create ~width:0 ~threshold:1 ()));
  Alcotest.check_raises "bad threshold" (Invalid_argument "Counting_device.create: bad threshold")
    (fun () -> ignore (Device.create ~width:8 ~threshold:9 ()))

let test_single_request_wins () =
  let d = Device.create ~width:8 ~threshold:4 () in
  let outcomes = Device.tick d ~requests:[| (0, 3) |] in
  check outcome "confirmed" Device.Confirmed outcomes.(0);
  check Alcotest.int "accepted" 1 (Device.accepted_count d);
  check Alcotest.bool "in=out" true (Device.in_reg d = Device.out_reg d)

let test_same_bit_race () =
  let d = Device.create ~width:8 ~threshold:4 () in
  let outcomes = Device.tick d ~requests:[| (0, 3); (1, 3); (2, 3) |] in
  check outcome "first wins" Device.Confirmed outcomes.(0);
  check outcome "second loses" Device.Lost outcomes.(1);
  check outcome "third loses" Device.Lost outcomes.(2);
  check Alcotest.int "one accepted" 1 (Device.accepted_count d)

let test_set_bit_rejects_later_cycles () =
  let d = Device.create ~width:8 ~threshold:4 () in
  ignore (Device.tick d ~requests:[| (0, 3) |]);
  let outcomes = Device.tick d ~requests:[| (1, 3) |] in
  check outcome "taken bit loses" Device.Lost outcomes.(0)

let test_threshold_enforced_within_cycle () =
  let d = Device.create ~width:8 ~threshold:2 () in
  (* Four distinct free bits requested; only 2 may survive. *)
  let outcomes = Device.tick d ~requests:[| (0, 1); (1, 4); (2, 6); (3, 7) |] in
  let confirmed = Array.fold_left (fun a o -> if o = Device.Confirmed then a + 1 else a) 0 outcomes in
  let revoked = Array.fold_left (fun a o -> if o = Device.Revoked then a + 1 else a) 0 outcomes in
  check Alcotest.int "two confirmed" 2 confirmed;
  check Alcotest.int "two revoked" 2 revoked;
  check Alcotest.int "accepted = tau" 2 (Device.accepted_count d);
  check Alcotest.bool "full" true (Device.is_full d)

let test_discard_keeps_lowest_bits () =
  let d = Device.create ~width:8 ~threshold:2 () in
  ignore (Device.tick d ~requests:[| (0, 6); (1, 2); (2, 5) |]);
  (* New bits {2,5,6}, allowed 2: survivors must be bits 2 and 5. *)
  check Alcotest.bool "bit 2 kept" true (Word.test_bit (Device.out_reg d) 2);
  check Alcotest.bool "bit 5 kept" true (Word.test_bit (Device.out_reg d) 5);
  check Alcotest.bool "bit 6 revoked" false (Word.test_bit (Device.out_reg d) 6)

let test_old_bits_never_revoked () =
  let d = Device.create ~width:8 ~threshold:2 () in
  ignore (Device.tick d ~requests:[| (0, 7) |]);
  (* Over-subscribe with lower-indexed bits; the old bit 7 must stay. *)
  ignore (Device.tick d ~requests:[| (1, 0); (2, 1); (3, 2) |]);
  check Alcotest.bool "old bit 7 kept" true (Word.test_bit (Device.out_reg d) 7);
  check Alcotest.int "tau respected" 2 (Device.accepted_count d)

let test_full_device_rejects_everything () =
  let d = Device.create ~width:8 ~threshold:1 () in
  ignore (Device.tick d ~requests:[| (0, 0) |]);
  let outcomes = Device.tick d ~requests:[| (1, 1); (2, 2) |] in
  Array.iter (fun o -> check Alcotest.bool "no win on full device" true (o <> Device.Confirmed)) outcomes;
  check Alcotest.int "still one" 1 (Device.accepted_count d)

let test_empty_tick () =
  let d = Device.create ~width:8 ~threshold:4 () in
  let outcomes = Device.tick d ~requests:[||] in
  check Alcotest.int "no outcomes" 0 (Array.length outcomes);
  check Alcotest.int "cycle counted" 1 (Device.cycles d)

let test_bad_bit_index () =
  let d = Device.create ~width:8 ~threshold:4 () in
  Alcotest.check_raises "bit out of range"
    (Invalid_argument "Counting_device.cycle: bit out of range") (fun () ->
      ignore (Device.tick d ~requests:[| (0, 8) |]))

let test_invariants_hold_under_load () =
  let rng = Renaming_rng.Xoshiro.create 1234L in
  List.iter
    (fun (width, threshold) ->
      let lit = Device.create ~rule:Device.Literal ~width ~threshold () in
      let refd = Device.create ~rule:Device.Reference ~width ~threshold () in
      for _ = 1 to 300 do
        let count = Renaming_rng.Sample.uniform_int rng (2 * width) in
        let requests =
          Array.init count (fun i -> (i, Renaming_rng.Sample.uniform_int rng width))
        in
        let o1 = Device.tick lit ~requests in
        let o2 = Device.tick refd ~requests in
        check Alcotest.(array outcome) "literal = reference outcomes" o2 o1;
        (match Device.check_invariants lit with
        | Ok () -> ()
        | Error msg -> Alcotest.fail ("literal invariant: " ^ msg));
        check Alcotest.int "registers agree" (Device.out_reg refd) (Device.out_reg lit)
      done;
      check Alcotest.bool "eventually full" true (Device.accepted_count lit <= threshold))
    [ (4, 2); (8, 3); (16, 8); (20, 10); (62, 31) ]

(* The register protocol as the simulator drives it: requests go in
   through [Memory.apply] and verdicts come back in the memory's answers,
   one per pid, after [Memory.tick_taus]. *)
let tau_memory ?(processes = 8) taus = Memory.create ~namespace:8 ~taus ~processes ()

let submit memory ~reg ~pid ~bit = ignore (Memory.apply memory ~pid (Op.Tau_submit { reg; bit }))

let poll memory ~reg ~pid =
  match Memory.apply memory ~pid (Op.Tau_poll reg) with
  | Op.Tau answer -> answer
  | _ -> Alcotest.fail "a tau poll answers Tau"

let test_tau_register_protocol () =
  let memory = tau_memory [| Tau.create ~tau:2 ~width:4 () |] in
  submit memory ~reg:0 ~pid:0 ~bit:1;
  submit memory ~reg:0 ~pid:1 ~bit:1;
  check Alcotest.bool "pending answers" true
    (poll memory ~reg:0 ~pid:0 = Tau.Pending && poll memory ~reg:0 ~pid:1 = Tau.Pending);
  Memory.tick_taus memory;
  check Alcotest.bool "pid 0 won" true (poll memory ~reg:0 ~pid:0 = Tau.Won_bit);
  check Alcotest.bool "pid 1 lost" true (poll memory ~reg:0 ~pid:1 = Tau.Lost_bit);
  (* One bit accepted: of tau = 2, one more is left to win. *)
  submit memory ~reg:0 ~pid:2 ~bit:2;
  Memory.tick_taus memory;
  submit memory ~reg:0 ~pid:3 ~bit:3;
  Memory.tick_taus memory;
  check Alcotest.bool "one accepted, one left" true
    (poll memory ~reg:0 ~pid:2 = Tau.Won_bit && poll memory ~reg:0 ~pid:3 = Tau.Lost_bit)

let test_tau_register_capacity () =
  let memory = tau_memory [| Tau.create ~tau:2 ~width:6 () |] in
  List.iter (fun (pid, bit) -> submit memory ~reg:0 ~pid ~bit) [ (0, 0); (1, 1); (2, 2); (3, 3) ];
  Memory.tick_taus memory;
  let winners =
    List.filter (fun pid -> poll memory ~reg:0 ~pid = Tau.Won_bit) [ 0; 1; 2; 3 ]
  in
  check Alcotest.int "exactly tau winners" 2 (List.length winners)

let test_tau_register_sparse_pids_and_resubmit () =
  (* Answers are kept per pid, for pids far beyond the first few; a pid
     that never submitted, one beyond [processes] included, reads
     [Pending]. *)
  let memory = tau_memory ~processes:1001 [| Tau.create ~tau:2 ~width:8 () |] in
  List.iter (fun (pid, bit) -> submit memory ~reg:0 ~pid ~bit) [ (3, 0); (40, 1); (1000, 2) ];
  Memory.tick_taus memory;
  List.iter
    (fun pid ->
      check Alcotest.bool (Printf.sprintf "pid %d won" pid) true
        (poll memory ~reg:0 ~pid = Tau.Won_bit))
    [ 3; 40 ];
  check Alcotest.bool "pid 1000 lost (device full)" true
    (poll memory ~reg:0 ~pid:1000 = Tau.Lost_bit);
  List.iter
    (fun pid ->
      check Alcotest.bool (Printf.sprintf "pid %d never asked" pid) true
        (poll memory ~reg:0 ~pid = Tau.Pending))
    [ 0; 41; 999; 5000 ];
  Alcotest.check_raises "pid beyond processes"
    (Invalid_argument "Memory.apply: Tau_submit from a pid beyond ~processes") (fun () ->
      submit memory ~reg:0 ~pid:1001 ~bit:0);
  (* Re-submitting resets the pid's answer until the next cycle. *)
  submit memory ~reg:0 ~pid:40 ~bit:3;
  check Alcotest.bool "resubmitted pid pending" true (poll memory ~reg:0 ~pid:40 = Tau.Pending);
  check Alcotest.bool "others keep their answer" true (poll memory ~reg:0 ~pid:3 = Tau.Won_bit);
  Memory.tick_taus memory;
  check Alcotest.bool "resubmitted pid answered" true
    (poll memory ~reg:0 ~pid:40 = Tau.Lost_bit)

let test_tau_poll_of_a_left_register () =
  (* A pid holds one answer, for its latest request: once it has asked
     register B, its old register A reads [Pending] for it, before and
     after B's cycle, while B answers. *)
  let memory =
    tau_memory [| Tau.create ~tau:2 ~width:4 (); Tau.create ~tau:2 ~width:4 () |]
  in
  submit memory ~reg:0 ~pid:5 ~bit:0;
  Memory.tick_taus memory;
  check Alcotest.bool "A answered" true (poll memory ~reg:0 ~pid:5 = Tau.Won_bit);
  submit memory ~reg:1 ~pid:5 ~bit:1;
  check Alcotest.bool "A pending after the move" true (poll memory ~reg:0 ~pid:5 = Tau.Pending);
  check Alcotest.bool "B pending before its cycle" true (poll memory ~reg:1 ~pid:5 = Tau.Pending);
  Memory.tick_taus memory;
  check Alcotest.bool "B answered" true (poll memory ~reg:1 ~pid:5 = Tau.Won_bit);
  check Alcotest.bool "A still pending" true (poll memory ~reg:0 ~pid:5 = Tau.Pending)

let test_tau_negative_pid () =
  let tau = Tau.create ~tau:2 ~width:4 () in
  let memory = tau_memory [| tau |] in
  check Alcotest.bool "negative pid polls pending" true (poll memory ~reg:0 ~pid:(-1) = Tau.Pending);
  Alcotest.check_raises "negative pid submits" (Invalid_argument "Tau_register.submit: negative pid")
    (fun () -> submit memory ~reg:0 ~pid:(-1) ~bit:0);
  Alcotest.check_raises "register: negative pid"
    (Invalid_argument "Tau_register.submit: negative pid") (fun () ->
      Tau.submit tau ~pid:(-1) ~bit:0);
  let answers = Array.make 1 (-1) in
  Tau.run_cycle tau ~won:1 ~lost:2 answers;
  check Alcotest.(array int) "nothing queued" [| -1 |] answers

let test_tau_answers_n_words () =
  (* The answers of all of Tight's n / log n registers are n words of
     the memory, and a register keeps nothing per pid: a pid-indexed
     array in every register would hold n words each, n^2 / log n in
     all.  At n = 4096 every pid gets an answer, one request per
     register per cycle, so no queue grows. *)
  let n = 4096 in
  let params = Params.make ~policy:Params.Mass_conserving ~n () in
  let taus =
    Array.map
      (fun (_, tau) -> Tau.create ~tau ~width:params.Params.width ())
      (Params.tau_geometry params)
  in
  let registers = Array.length taus in
  let words memory = Obj.reachable_words (Obj.repr memory) in
  let memory = tau_memory ~processes:n taus in
  let answer_words = words memory - words (tau_memory ~processes:0 taus) in
  check Alcotest.bool
    (Printf.sprintf "%d answer words for %d pids and %d registers" answer_words n registers)
    true
    (answer_words <= n + 1);
  let register_words = Obj.reachable_words (Obj.repr taus) in
  for pid = 0 to n - 1 do
    submit memory ~reg:(pid mod registers) ~pid ~bit:(pid / registers mod params.Params.width);
    if pid mod registers = registers - 1 then Memory.tick_taus memory
  done;
  Memory.tick_taus memory;
  check Alcotest.int "register words after every pid's request" register_words
    (Obj.reachable_words (Obj.repr taus));
  check Alcotest.bool "every pid answered" true
    (List.for_all (fun pid -> poll memory ~reg:(pid mod registers) ~pid <> Tau.Pending)
       (List.init n Fun.id))

let test_tau_register_resolve_order () =
  (* The adversary reverses the request order: the later submitter wins
     the contended bit.  [run_cycle] writes the verdicts it is given. *)
  let tau = Tau.create ~tau:2 ~width:4 () in
  let answers = Array.make 3 (-1) in
  Tau.submit tau ~pid:0 ~bit:2;
  Tau.submit tau ~pid:1 ~bit:2;
  Tau.run_cycle tau ~won:7 ~lost:9 answers ~resolve_order:(fun requests ->
      let tmp = requests.(0) in
      requests.(0) <- requests.(1);
      requests.(1) <- tmp);
  check Alcotest.(array int) "pid 1 won after reorder, pid 0 lost" [| 9; 7; -1 |] answers

let test_tau_slot_bounds () =
  (* A register has between 1 and [width] name slots. *)
  List.iter
    (fun tau ->
      Alcotest.check_raises (Printf.sprintf "tau %d of width 4" tau)
        (Invalid_argument "Tau_register.create: tau out of range") (fun () ->
          ignore (Tau.create ~tau ~width:4 ())))
    [ 0; 5 ]

let qcheck_device_never_exceeds_tau =
  QCheck.Test.make ~count:200 ~name:"device never accepts more than tau bits"
    QCheck.(triple (int_range 2 20) small_int (list_of_size (Gen.int_range 0 60) (int_bound 19)))
    (fun (width, seed, bits) ->
      let threshold = 1 + (abs seed mod width) in
      let d = Device.create ~width ~threshold () in
      List.iteri
        (fun i bit -> ignore (Device.tick d ~requests:[| (i, bit mod width) |]))
        bits;
      Device.accepted_count d <= threshold)

let qcheck_literal_equals_reference =
  QCheck.Test.make ~count:200 ~name:"literal discard equals reference on random batches"
    QCheck.(
      triple (int_range 2 24) (int_bound 1000)
        (list_of_size (Gen.int_range 1 6) (list_of_size (Gen.int_range 0 30) (int_bound 23))))
    (fun (width, tseed, batches) ->
      let threshold = 1 + (tseed mod width) in
      let lit = Device.create ~rule:Device.Literal ~width ~threshold () in
      let refd = Device.create ~rule:Device.Reference ~width ~threshold () in
      List.for_all
        (fun batch ->
          let requests = Array.of_list (List.mapi (fun i b -> (i, b mod width)) batch) in
          let o1 = Device.tick lit ~requests in
          let o2 = Device.tick refd ~requests in
          o1 = o2 && Device.out_reg lit = Device.out_reg refd)
        batches)

(* [cycle] in place and the [tick] wrapper agree verdict for verdict
   and register for register, under both discard rules; [cycle] reads
   and writes only the first [count] entries of its buffer. *)
let qcheck_cycle_equals_tick =
  QCheck.Test.make ~count:200 ~name:"cycle in place equals tick"
    QCheck.(
      triple (int_range 2 24) (int_bound 1000)
        (list_of_size (Gen.int_range 1 6) (list_of_size (Gen.int_range 0 30) (int_bound 23))))
    (fun (width, tseed, batches) ->
      let threshold = 1 + (tseed mod width) in
      List.for_all
        (fun rule ->
          let ticked = Device.create ~rule ~width ~threshold () in
          let cycled = Device.create ~rule ~width ~threshold () in
          List.for_all
            (fun batch ->
              let requests = Array.of_list (List.mapi (fun i b -> (i, b mod width)) batch) in
              let count = Array.length requests in
              let outcomes = Device.tick ticked ~requests in
              let bits = Array.append (Array.map snd requests) [| width; -7 |] in
              Device.cycle cycled bits count;
              Array.for_all2
                (fun o v -> (o = Device.Confirmed) = (v = Device.confirmed))
                outcomes (Array.sub bits 0 count)
              && bits.(count) = width
              && bits.(count + 1) = -7
              && Device.in_reg ticked = Device.in_reg cycled
              && Device.out_reg ticked = Device.out_reg cycled
              && Device.cycles ticked = Device.cycles cycled)
            batches)
        [ Device.Literal; Device.Reference ])

let tests =
  [
    ( "device",
      [
        Alcotest.test_case "create validation" `Quick test_create_validation;
        Alcotest.test_case "single request" `Quick test_single_request_wins;
        Alcotest.test_case "same-bit race" `Quick test_same_bit_race;
        Alcotest.test_case "set bit rejects" `Quick test_set_bit_rejects_later_cycles;
        Alcotest.test_case "threshold in cycle" `Quick test_threshold_enforced_within_cycle;
        Alcotest.test_case "discard keeps lowest" `Quick test_discard_keeps_lowest_bits;
        Alcotest.test_case "old bits kept" `Quick test_old_bits_never_revoked;
        Alcotest.test_case "full device rejects" `Quick test_full_device_rejects_everything;
        Alcotest.test_case "empty tick" `Quick test_empty_tick;
        Alcotest.test_case "bad bit index" `Quick test_bad_bit_index;
        Alcotest.test_case "invariants under load" `Quick test_invariants_hold_under_load;
        Alcotest.test_case "tau protocol" `Quick test_tau_register_protocol;
        Alcotest.test_case "tau capacity" `Quick test_tau_register_capacity;
        Alcotest.test_case "tau sparse pids, resubmit" `Quick
          test_tau_register_sparse_pids_and_resubmit;
        Alcotest.test_case "tau poll of a left register" `Quick test_tau_poll_of_a_left_register;
        Alcotest.test_case "tau negative pid" `Quick test_tau_negative_pid;
        Alcotest.test_case "tau answers are n words" `Quick
          test_tau_answers_n_words;
        Alcotest.test_case "tau resolve order" `Quick test_tau_register_resolve_order;
        Alcotest.test_case "tau slot bounds" `Quick test_tau_slot_bounds;
        QCheck_alcotest.to_alcotest qcheck_device_never_exceeds_tau;
        QCheck_alcotest.to_alcotest qcheck_literal_equals_reference;
        QCheck_alcotest.to_alcotest qcheck_cycle_equals_tick;
      ] );
  ]

(* --- appended: multi-cycle property tests with adversarial resolve
   orders --- *)

let qcheck_tau_register_capacity_across_cycles =
  QCheck.Test.make ~count:100 ~name:"tau register never confirms more than tau winners, ever"
    QCheck.(triple small_int (int_range 1 10) (list_of_size (Gen.int_range 1 8) (list_of_size (Gen.int_range 0 12) (int_bound 30))))
    (fun (seed, tau0, cycles) ->
      let width = 2 * (((tau0 - 1) mod 10) + 1 + 5) in
      let tau = min (((tau0 - 1) mod 10) + 1) width in
      let reg = Tau.create ~tau ~width () in
      let rng = Renaming_rng.Xoshiro.create (Int64.of_int seed) in
      let next_pid = ref 0 in
      let requests = List.fold_left (fun k batch -> k + List.length batch) 0 cycles in
      let answers = Array.make (requests + width) (-1) in
      List.iter
        (fun batch ->
          List.iter
            (fun bit ->
              Tau.submit reg ~pid:!next_pid ~bit:(bit mod width);
              incr next_pid)
            batch;
          (* Adversarially shuffle same-cycle requests. *)
          Tau.run_cycle reg ~won:1 ~lost:2 answers ~resolve_order:(fun requests ->
              let order = Renaming_rng.Sample.permutation rng (Array.length requests) in
              let arrived = Array.copy requests in
              Array.iteri (fun i j -> requests.(i) <- arrived.(j)) order))
        cycles;
      let won = Array.fold_left (fun k answer -> if answer = 1 then k + 1 else k) 0 answers in
      (* One last cycle asks for every bit: the device confirms exactly
         the tau - accepted it has left, so the verdicts so far account
         for every accepted bit. *)
      for bit = 0 to width - 1 do
        Tau.submit reg ~pid:(requests + bit) ~bit
      done;
      Tau.run_cycle reg ~won:3 ~lost:2 answers;
      let topped_up = Array.fold_left (fun k answer -> if answer = 3 then k + 1 else k) 0 answers in
      won <= tau && won + topped_up = tau)

let appended_device_tests =
  [
    ( "device-extra",
      [ QCheck_alcotest.to_alcotest qcheck_tau_register_capacity_across_cycles ] );
  ]

let tests = tests @ appended_device_tests
