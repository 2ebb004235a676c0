(* Host-speed calibration.  On a shared host the CPU speed a run gets
   drifts by a fifth or more over minutes, and two busy domains drift
   more than one.  A fixed kernel of this file's own is timed next to
   every measured repetition on as many domains as the workload uses;
   end-to-end timings are divided by its slowdown against the reference
   host, so they read as on that host.  The kernel is benchmark code: no
   change to the system under test moves it.

   The kernel does random read-modify-writes with small allocations,
   half over 256 KB and half over 4 MB, because the workloads span
   cache-resident calls (lease-direct) and heap-heavy runs (oneshot,
   multicore), and the drift hits the two differently.  In ten
   side-by-side runs of each workload, the worst spread was 8.2%
   unscaled, 6.9% and 7.9% with either half alone, and 4.4% with the
   mix. *)

open Bigarray

type working_set = (int, int_elt, c_layout) Array1.t

let small = 1 lsl 15
let large = 1 lsl 19

(* One pair of working sets per domain, allocated once and outside the
   OCaml heap, so calibrating changes nothing the workloads are measured
   in. *)
let sets = Array.init 2 (fun _ -> (Array1.create int c_layout small, Array1.create int c_layout large))

let walk (a : working_set) words =
  let x = ref 0x2545F4914F6CDD1D in
  for i = 1 to 750_000 do
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17);
    let j = !x land (words - 1) in
    a.{j} <- a.{j} + i;
    if i land 63 = 0 then ignore (Sys.opaque_identity (List.init 8 (fun k -> k + i)))
  done

let kernel d () =
  let s, l = sets.(d) in
  walk s small;
  walk l large

(* The kernel's median time on the reference host (2 vCPUs, OCaml
   5.1.1); it is about the same on one domain and on two. *)
let reference_ns = 11.0e6

let slowdown ~domains =
  let t0 = Meter.now () in
  let others = List.init (domains - 1) (fun d -> Domain.spawn (kernel (d + 1))) in
  kernel 0 ();
  List.iter Domain.join others;
  float_of_int (Meter.now () - t0) /. reference_ns
