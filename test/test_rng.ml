(* Tests for renaming_rng: determinism, stream independence, sampling
   correctness. *)

open Renaming_rng

let check = Alcotest.check

(* [Xoshiro.create] seeds word [k] with SplitMix64 output [k+1], and
   xoshiro256**'s first output is [rotl (s1 * 5, 7) * 9]: applied to the
   published second SplitMix64 output for seed 0, it pins the seeding
   rounds to the reference generator. *)
let test_xoshiro_seeded_by_splitmix () =
  let s1 = 0x6E789E6AA1B965F4L in
  let x = Int64.mul s1 5L in
  let rotl = Int64.logor (Int64.shift_left x 7) (Int64.shift_right_logical x 57) in
  check Alcotest.int64 "first output, seed 0" (Int64.mul rotl 9L) (Xoshiro.next (Xoshiro.create 0L))

let test_xoshiro_deterministic () =
  let a = Xoshiro.create 7L and b = Xoshiro.create 7L in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Xoshiro.next a) (Xoshiro.next b)
  done

let test_int63_nonnegative () =
  let g = Xoshiro.create 5L in
  for _ = 1 to 1000 do
    let x = Xoshiro.next_int63 g in
    check Alcotest.bool "non-negative" true (x >= 0)
  done

let test_uniform_int_range () =
  let g = Xoshiro.create 11L in
  for _ = 1 to 1000 do
    let x = Sample.uniform_int g 17 in
    check Alcotest.bool "in range" true (x >= 0 && x < 17)
  done

let test_uniform_int_bound_one () =
  let g = Xoshiro.create 11L in
  for _ = 1 to 10 do
    check Alcotest.int "bound 1 yields 0" 0 (Sample.uniform_int g 1)
  done

let test_uniform_int_rejects_bad_bound () =
  let g = Xoshiro.create 11L in
  Alcotest.check_raises "zero bound" (Invalid_argument "Sample.uniform_int: bound must be positive")
    (fun () -> ignore (Sample.uniform_int g 0))

let test_uniform_int_covers_values () =
  let g = Xoshiro.create 3L in
  let seen = Array.make 10 false in
  for _ = 1 to 5000 do
    seen.(Sample.uniform_int g 10) <- true
  done;
  Array.iteri (fun i s -> check Alcotest.bool (Printf.sprintf "value %d seen" i) true s) seen

let test_uniform_int_roughly_uniform () =
  let g = Xoshiro.create 17L in
  let bound = 8 in
  let counts = Array.make bound 0 in
  let trials = 80_000 in
  for _ = 1 to trials do
    let x = Sample.uniform_int g bound in
    counts.(x) <- counts.(x) + 1
  done;
  let expected = float_of_int trials /. float_of_int bound in
  Array.iteri
    (fun i c ->
      let dev = Float.abs (float_of_int c -. expected) /. expected in
      check Alcotest.bool (Printf.sprintf "bucket %d within 5%%" i) true (dev < 0.05))
    counts

let test_uniform_in_range () =
  let g = Xoshiro.create 23L in
  for _ = 1 to 1000 do
    let x = Sample.uniform_in_range g ~lo:(-5) ~hi:5 in
    check Alcotest.bool "in [-5,5]" true (x >= -5 && x <= 5)
  done

let test_float_unit_range () =
  let g = Xoshiro.create 29L in
  for _ = 1 to 1000 do
    let x = Sample.float_unit g in
    check Alcotest.bool "in [0,1)" true (x >= 0. && x < 1.)
  done

let test_bernoulli_extremes () =
  let g = Xoshiro.create 31L in
  for _ = 1 to 100 do
    check Alcotest.bool "p=0 never" false (Sample.bernoulli g 0.);
    check Alcotest.bool "p=1 always" true (Sample.bernoulli g 1.)
  done

let test_permutation_is_permutation () =
  let g = Xoshiro.create 37L in
  let p = Sample.permutation g 100 in
  let sorted = Array.copy p in
  Array.sort compare sorted;
  check Alcotest.(array int) "contains 0..99" (Array.init 100 Fun.id) sorted

let test_shuffle_preserves_elements () =
  let g = Xoshiro.create 41L in
  let arr = Array.init 50 (fun i -> i * 3) in
  let shuffled = Array.map (fun i -> arr.(i)) (Sample.permutation g 50) in
  check Alcotest.bool "moved" true (shuffled <> arr);
  Array.sort compare shuffled;
  check Alcotest.(array int) "same multiset" arr shuffled

let test_stream_fork_reproducible () =
  let s1 = Stream.create 5L and s2 = Stream.create 5L in
  let a = Stream.fork s1 ~index:3 and b = Stream.fork s2 ~index:3 in
  for _ = 1 to 50 do
    check Alcotest.int64 "same fork, same stream" (Xoshiro.next a) (Xoshiro.next b)
  done

let test_stream_fork_order_independent () =
  let s1 = Stream.create 5L in
  let _ = Stream.fork s1 ~index:0 in
  let a = Stream.fork s1 ~index:3 in
  let s2 = Stream.create 5L in
  let b = Stream.fork s2 ~index:3 in
  for _ = 1 to 50 do
    check Alcotest.int64 "fork independent of history" (Xoshiro.next a) (Xoshiro.next b)
  done

let test_stream_forks_distinct () =
  let s = Stream.create 5L in
  let a = Stream.fork s ~index:0 and b = Stream.fork s ~index:1 in
  let same = ref true in
  for _ = 1 to 20 do
    if Xoshiro.next a <> Xoshiro.next b then same := false
  done;
  check Alcotest.bool "different indices differ" false !same

let test_stream_named_vs_indexed () =
  let s = Stream.create 5L in
  let a = Stream.fork_named s ~name:"workload" and b = Stream.fork_named s ~name:"adversary" in
  let same = ref true in
  for _ = 1 to 20 do
    if Xoshiro.next a <> Xoshiro.next b then same := false
  done;
  check Alcotest.bool "different names differ" false !same

(* Golden values pinning the named-substream derivation across OCaml
   versions.  The first three are the published 64-bit FNV-1a reference
   vectors; the last two pin concrete stream outputs.  A failure here
   means every seeded experiment using named substreams silently
   reseeds — treat it as an interface break, not a test to update. *)
let test_stream_fnv_golden_vectors () =
  let cases =
    [
      ("", 0xcbf29ce484222325L);
      ("a", 0xaf63dc4c8601ec8cL);
      ("foobar", 0x85944171f73967e8L);
      ("adversary", 0x561e06079276c160L);
    ]
  in
  List.iter
    (fun (name, expected) ->
      check Alcotest.int64 (Printf.sprintf "fnv1a(%S)" name) expected (Stream.hash_name name))
    cases

let test_stream_named_golden_outputs () =
  let first ~seed ~name = Xoshiro.next (Stream.fork_named (Stream.create seed) ~name) in
  check Alcotest.int64 "first output of (42, \"adversary\")" 0x4211e2eb4641d82cL
    (first ~seed:42L ~name:"adversary");
  check Alcotest.int64 "first output of (7, \"workload\")" 0xbe575556f2fe4756L
    (first ~seed:7L ~name:"workload")

(* Golden outputs pinning the generator, its seeding and the samplers.
   Each output is bound with [let] before it is compared: arguments are
   evaluated right to left, so drawing inside the [check] calls would
   consume the stream out of order.  A failure here reseeds every
   experiment in the repository; treat it as an interface break. *)
let test_xoshiro_golden_outputs () =
  let g = Xoshiro.create 7L in
  let x1 = Xoshiro.next g in
  let x2 = Xoshiro.next g in
  let x3 = Xoshiro.next g in
  check Alcotest.int64 "create 7, output 1" 0xb358faf74ef9765aL x1;
  check Alcotest.int64 "create 7, output 2" 0x475c3d964f482cd2L x2;
  check Alcotest.int64 "create 7, output 3" 0xd6f1d349952c7996L x3

let test_sample_golden_outputs () =
  let r = Stream.fork (Stream.create 1L) ~index:0 in
  let a = Sample.uniform_int r 65536 in
  let b = Sample.uniform_int r 65536 in
  let c = Sample.uniform_int r 3 in
  let f = Sample.float_unit r in
  check Alcotest.int "uniform_int 65536, draw 1" 64577 a;
  check Alcotest.int "uniform_int 65536, draw 2" 38744 b;
  check Alcotest.int "uniform_int 3" 1 c;
  check (Alcotest.float 0.) "float_unit" 0x1.036595bfd860ap-1 f

(* The probe path must not allocate: the paper's algorithms draw once per
   step.  [Stream.fork] allocates the 32-byte state plus its boxed key;
   [Stream.fork_into] seeds a state in place and allocates nothing. *)
let test_probe_path_allocates_nothing () =
  let calls = 100_000 in
  let words f =
    let before = Gc.minor_words () in
    for _ = 1 to calls do
      f ()
    done;
    Gc.minor_words () -. before
  in
  let rng = Xoshiro.create 3L in
  let sink = ref 0 in
  check (Alcotest.float 0.) "Xoshiro.next_int63" 0.
    (words (fun () -> sink := !sink lxor Xoshiro.next_int63 rng));
  check (Alcotest.float 0.) "Sample.uniform_int" 0.
    (words (fun () -> sink := !sink lxor Sample.uniform_int rng 65536));
  check (Alcotest.float 0.) "Sample.bernoulli" 0.
    (words (fun () -> if Sample.bernoulli rng 0.5 then incr sink));
  let buf = Bytes.create (4 * Xoshiro.state_bytes) in
  Xoshiro.derive_at 5L ~key:1 buf 64;
  check (Alcotest.float 0.) "Xoshiro.next_int63_at" 0.
    (words (fun () -> sink := !sink lxor Xoshiro.next_int63_at buf 64));
  let stream = Stream.create 5L in
  check (Alcotest.float 0.) "Stream.fork_into" 0.
    (words (fun () -> Stream.fork_into stream ~index:!sink buf 32));
  let forked = words (fun () -> ignore (Sys.opaque_identity (Stream.fork stream ~index:!sink))) in
  check Alcotest.bool
    (Printf.sprintf "Stream.fork: %.1f words per call <= 12" (forked /. float_of_int calls))
    true
    (forked <= 12. *. float_of_int calls)

(* A state seeded at any offset of a shared buffer is the stream
   [Stream.fork] gives, and drawing there leaves the bytes around it
   alone. *)
let test_fork_into_matches_fork () =
  let stream = Stream.create 9L in
  let buf = Bytes.make ((3 * Xoshiro.state_bytes) + 11) '\x5a' in
  List.iter
    (fun (index, off) ->
      let work = Bytes.copy buf in
      Stream.fork_into stream ~index work off;
      let reference = Stream.fork stream ~index in
      for draw = 1 to 200 do
        let label = Printf.sprintf "index %d at offset %d, draw %d" index off draw in
        let got = Xoshiro.next_int63_at work off in
        check Alcotest.int label (Xoshiro.next_int63 reference) got
      done;
      let outside = Bytes.copy work in
      Bytes.blit buf off outside off Xoshiro.state_bytes;
      check Alcotest.bytes
        (Printf.sprintf "index %d at offset %d: the other bytes are untouched" index off)
        buf outside)
    [ (0, 0); (1, 1); (7, 8); (65535, 32); (3, 43); (12, Bytes.length buf - 32) ]

(* The power-of-two path must return what the rejection formula does:
   for such bounds it accepts every draw and [x mod bound] is
   [x land (bound - 1)]. *)
let test_uniform_int_power_of_two_is_rejection () =
  let rejection rng bound =
    let n_mod = ((max_int mod bound) + 1) mod bound in
    let accept_max = max_int - n_mod in
    let x = ref (Xoshiro.next_int63 rng) in
    while !x > accept_max do
      x := Xoshiro.next_int63 rng
    done;
    !x mod bound
  in
  for k = 0 to 30 do
    let bound = 1 lsl k in
    let a = Xoshiro.create (Int64.of_int (1000 + k)) in
    let b = Xoshiro.create (Int64.of_int (1000 + k)) in
    for draw = 1 to 10_000 do
      let got = Sample.uniform_int a bound in
      let expected = rejection b bound in
      if got <> expected then
        Alcotest.failf "bound 2^%d, draw %d: %d, rejection gives %d" k draw got expected
    done
  done

let test_offset_outside_buffer_raises () =
  let stream = Stream.create 1L in
  let buf = Bytes.create 40 in
  Stream.fork_into stream ~index:0 buf 8;
  List.iter
    (fun off ->
      let raises name f =
        Alcotest.check_raises
          (Printf.sprintf "%s at offset %d" name off)
          (Invalid_argument (name ^ ": offset outside the buffer"))
          (fun () -> ignore (f ()))
      in
      raises "Xoshiro.next_int63_at" (fun () -> Xoshiro.next_int63_at buf off);
      raises "Xoshiro.derive_at" (fun () -> Xoshiro.derive_at 1L ~key:1 buf off);
      raises "Xoshiro.derive_at" (fun () -> Stream.fork_into stream ~index:0 buf off))
    [ -1; -32; 9; 39; 40; max_int; min_int ];
  Alcotest.check_raises "an empty buffer"
    (Invalid_argument "Xoshiro.next_int63_at: offset outside the buffer") (fun () ->
      ignore (Xoshiro.next_int63_at Bytes.empty 0))

let qcheck_uniform_int_in_bounds =
  QCheck.Test.make ~count:500 ~name:"uniform_int stays in [0,bound)"
    QCheck.(pair small_int (int_bound 1000))
    (fun (seed, bound0) ->
      let bound = bound0 + 1 in
      let g = Xoshiro.create (Int64.of_int seed) in
      let x = Sample.uniform_int g bound in
      x >= 0 && x < bound)

let qcheck_permutation_valid =
  QCheck.Test.make ~count:200 ~name:"permutation is a bijection"
    QCheck.(pair small_int (int_bound 200))
    (fun (seed, n0) ->
      let n = n0 + 1 in
      let g = Xoshiro.create (Int64.of_int seed) in
      let p = Sample.permutation g n in
      let sorted = Array.copy p in
      Array.sort compare sorted;
      sorted = Array.init n Fun.id)

let tests =
  [
    ( "rng",
      [
        Alcotest.test_case "xoshiro seeded by splitmix" `Quick test_xoshiro_seeded_by_splitmix;
        Alcotest.test_case "xoshiro deterministic" `Quick test_xoshiro_deterministic;
        Alcotest.test_case "int63 nonnegative" `Quick test_int63_nonnegative;
        Alcotest.test_case "uniform_int range" `Quick test_uniform_int_range;
        Alcotest.test_case "uniform_int bound=1" `Quick test_uniform_int_bound_one;
        Alcotest.test_case "uniform_int bad bound" `Quick test_uniform_int_rejects_bad_bound;
        Alcotest.test_case "uniform_int covers" `Quick test_uniform_int_covers_values;
        Alcotest.test_case "uniform_int uniformity" `Quick test_uniform_int_roughly_uniform;
        Alcotest.test_case "uniform_in_range" `Quick test_uniform_in_range;
        Alcotest.test_case "float_unit range" `Quick test_float_unit_range;
        Alcotest.test_case "bernoulli extremes" `Quick test_bernoulli_extremes;
        Alcotest.test_case "permutation valid" `Quick test_permutation_is_permutation;
        Alcotest.test_case "shuffle multiset" `Quick test_shuffle_preserves_elements;
        Alcotest.test_case "stream fork reproducible" `Quick test_stream_fork_reproducible;
        Alcotest.test_case "stream fork order-free" `Quick test_stream_fork_order_independent;
        Alcotest.test_case "stream forks distinct" `Quick test_stream_forks_distinct;
        Alcotest.test_case "stream names distinct" `Quick test_stream_named_vs_indexed;
        Alcotest.test_case "stream fnv-1a golden vectors" `Quick test_stream_fnv_golden_vectors;
        Alcotest.test_case "stream named golden outputs" `Quick test_stream_named_golden_outputs;
        Alcotest.test_case "xoshiro golden outputs" `Quick test_xoshiro_golden_outputs;
        Alcotest.test_case "sample golden outputs" `Quick test_sample_golden_outputs;
        Alcotest.test_case "probe path allocates nothing" `Quick test_probe_path_allocates_nothing;
        Alcotest.test_case "fork_into matches fork" `Quick test_fork_into_matches_fork;
        Alcotest.test_case "uniform_int 2^k is rejection" `Quick
          test_uniform_int_power_of_two_is_rejection;
        Alcotest.test_case "offset outside buffer raises" `Quick
          test_offset_outside_buffer_raises;
        QCheck_alcotest.to_alcotest qcheck_uniform_int_in_bounds;
        QCheck_alcotest.to_alcotest qcheck_permutation_valid;
      ] );
  ]
