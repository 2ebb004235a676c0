(* Tests of the end-to-end benchmark's own machinery: the latency
   recorder, determinism of the simulated workloads, the correctness
   gate, and the trace file.  Everything runs at smoke size. *)

open E2e

let check_bool = Alcotest.(check bool)

(* --- Lat --- *)

let bucket_of v =
  let b = Lat.bounds in
  let rec go i = if i = Array.length b || b.(i) >= v then i else go (i + 1) in
  go 0

let test_percentiles () =
  let rng = Renaming_rng.Xoshiro.create 11L in
  let values =
    Array.init 20_000 (fun _ ->
        let magnitude = Renaming_rng.Sample.uniform_int rng 28 in
        16 + Renaming_rng.Sample.uniform_int rng (1 lsl (magnitude + 1)))
  in
  let lat = Lat.create () in
  Array.iter (Lat.record lat) values;
  let sorted = Array.copy values in
  Array.sort compare sorted;
  let top = sorted.(Array.length sorted - 1) in
  List.iter
    (fun p ->
      let rank = max 1 (int_of_float (ceil (p /. 100. *. float_of_int (Array.length sorted)))) in
      let exact = sorted.(rank - 1) in
      let i = bucket_of exact in
      let lo = if i = 0 then 0 else Lat.bounds.(i - 1) in
      let hi = if i < Array.length Lat.bounds then min Lat.bounds.(i) top else top in
      let est = Lat.percentile lat p in
      if not (float_of_int lo < est && est <= float_of_int hi) then
        Alcotest.failf "p%g: estimate %g outside the exact value's bucket (%d, %d] (exact %d)" p est lo hi
          exact)
    [ 0.1; 1.; 10.; 25.; 50.; 75.; 90.; 99.; 99.9; 100. ]

let test_resolution () =
  Array.iteri
    (fun i b ->
      if i > 0 then
        let lo = Lat.bounds.(i - 1) in
        if b - lo > max 1 (lo / 16) then Alcotest.failf "bucket (%d, %d] wider than 1/16" lo b)
    Lat.bounds;
  Alcotest.(check int) "last bound" (1 lsl 34) Lat.bounds.(Array.length Lat.bounds - 1)

let test_no_allocation () =
  let lat = Lat.create () in
  let before = Gc.minor_words () in
  for _ = 1 to 100_000 do
    let t0 = Meter.now () in
    Lat.record lat (Meter.now () - t0)
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.check (Alcotest.float 0.) "minor words for 10^5 timed records" 0. words

(* --- determinism and the gate --- *)

let run_smoke (w : Rep.workload) ~seed ~traced =
  let m = Meter.create ~traced w.kinds in
  (w.prepare ~size:w.smoke ~seed m (), m)

let simulated = [ Oneshot.workload; Lease_gen.workload; Net_lossy.workload ]

let test_deterministic (w : Rep.workload) () =
  let a, _ = run_smoke w ~seed:7L ~traced:false in
  let b, _ = run_smoke w ~seed:7L ~traced:true in
  Alcotest.(check (list string)) "no gate failures" [] a.Rep.errors;
  Alcotest.check Alcotest.(list (pair string (Alcotest.float 0.))) "counts" a.Rep.counts b.Rep.counts;
  Alcotest.(check (list int))
    "steps, named, attempts, granted, ops, failed"
    [ a.Rep.steps; a.Rep.named; a.Rep.attempts; a.Rep.granted; a.Rep.ops; a.Rep.failed ]
    [ b.Rep.steps; b.Rep.named; b.Rep.attempts; b.Rep.granted; b.Rep.ops; b.Rep.failed ];
  let c, _ = run_smoke w ~seed:8L ~traced:false in
  check_bool "another seed gives other counts" true (c.Rep.counts <> a.Rep.counts)

let test_holders () =
  let h = Lease_gen.Holders.create 4 in
  check_bool "first grant" true (Lease_gen.Holders.grant h ~name:2 ~session:10);
  check_bool "double hold refused" false (Lease_gen.Holders.grant h ~name:2 ~session:11);
  Lease_gen.Holders.drop h ~name:2 ~session:11;
  check_bool "only the holder drops" false (Lease_gen.Holders.grant h ~name:2 ~session:11);
  Lease_gen.Holders.drop h ~name:2 ~session:10;
  check_bool "granted again after a drop" true (Lease_gen.Holders.grant h ~name:2 ~session:11)

(* A backend that grants name 0 to everyone: the generator's holder
   oracle must fail the repetition. *)
module Double_grant = struct
  type t = { mutable n : int }
  type fence = int

  let layer = "broken"
  let create ~clock:_ ~stream:_ = { n = 0 }
  let slots _ = 4
  let name_of _ _ = 0

  let acquire b m ~session ~key:_ =
    let t0 = Meter.now () in
    b.n <- b.n + 1;
    Meter.call m Lease_gen.k_acquire ~rid:session t0;
    Lease_gen.Granted

  let granted b = b.n
  let ticket _ = -1
  let renew _ _ _ ~rid:_ = true
  let use _ _ _ ~rid:_ = true
  let release _ _ _ ~rid:_ = true
  let pump _ _ = ()
  let drain _ ~on_done:_ ~on_timeout:_ = ()
  let probes b = b.n
end

module Broken_gen = Lease_gen.Gen (Double_grant)

let test_gate_trips () =
  let m = Meter.create ~traced:false (Lease_gen.kinds Double_grant.layer) in
  let r = Broken_gen.prepare ~size:2 ~seed:1L m () in
  check_bool "double hold reported" true
    (List.exists (fun e -> String.length e > 5 && String.sub e 0 5 = "name ") r.Rep.errors)

(* --- the trace file --- *)

let test_trace (w : Rep.workload) () =
  let _, m = run_smoke w ~seed:3L ~traced:true in
  let path = Chrome.write ~dir:(Filename.temp_dir "e2e_bench" "traces") ~workload:w.name m in
  let contents = In_channel.with_open_text path In_channel.input_all in
  (match Chrome.check ~layers:w.layers contents with
  | Ok spans -> check_bool "has spans" true (spans > 1)
  | Error e -> Alcotest.fail e);
  check_bool "a layer the workload never enters is missing" true
    (Result.is_error (Chrome.check ~layers:("absent" :: w.layers) contents))

let test_ladder () =
  let metrics, errors = Ladder.run ~seed:5L ~smoke:true in
  Alcotest.(check (list string)) "no gate failures" [] errors;
  List.iter
    (fun (m : Ladder.metric) ->
      if not (Float.is_finite m.value) then Alcotest.failf "%s is not finite" m.name)
    metrics

let all = [ Oneshot.workload; Lease_gen.workload; Net_lossy.workload; Multicore.workload ]

let () =
  Alcotest.run "e2e_bench"
    [
      ( "lat",
        [
          Alcotest.test_case "percentiles match an exact sort within a bucket" `Quick test_percentiles;
          Alcotest.test_case "buckets are at most 1/16 wide" `Quick test_resolution;
          Alcotest.test_case "10^5 timed records allocate nothing" `Quick test_no_allocation;
        ] );
      ( "determinism",
        List.map
          (fun (w : Rep.workload) -> Alcotest.test_case (w.name ^ " counts repeat at one seed") `Quick (test_deterministic w))
          simulated );
      ( "gate",
        [
          Alcotest.test_case "holder oracle refuses a double hold" `Quick test_holders;
          Alcotest.test_case "a double grant fails the repetition" `Quick test_gate_trips;
        ] );
      ( "trace",
        List.map
          (fun (w : Rep.workload) -> Alcotest.test_case (w.name ^ " trace re-parses and covers its layers") `Quick (test_trace w))
          all
        @ [ Alcotest.test_case "ladder reports every metric" `Quick test_ladder ] );
    ]
