(* Multicore demo: the standard-model loose algorithms on real OCaml 5
   domains — the closest this repository gets to the hardware-TAS machine
   the paper assumes.  A name is one bit of a packed register file, 32
   registers to an Atomic word, won with a lock-free compare-and-set.

   Run with:  dune exec examples/multicore_names.exe
   It exits 1 if any run hands out an invalid assignment. *)

module Mc_run = Renaming_concurrent.Mc_run
module Assignment = Renaming_shm.Assignment

let show label (result : Mc_run.result) =
  let valid = Assignment.is_valid result.Mc_run.assignment in
  Printf.printf "  %-22s domains=%d  wall=%6.3fs  max steps=%3d  unnamed=%5d  valid=%b\n%!"
    label result.Mc_run.domains result.Mc_run.wall_seconds (Mc_run.max_steps result)
    (Mc_run.unnamed_count result) valid;
  if not valid then exit 1

let () =
  let n = 1 lsl 17 in
  let seed = 2025L in
  Printf.printf "multicore renaming, n = %d processes (%d domains recommended)\n\n" n
    (Mc_run.recommended_domains ());
  (* Lemma 6 and Lemma 8 on every core. *)
  show "Lemma 6 (l=2)" (Mc_run.loose_geometric ~n ~ell:2 ~seed ());
  show "Lemma 8 (l=1)" (Mc_run.loose_clustered ~n ~ell:1 ~seed ());
  show "probing m=2n" (Mc_run.uniform_probing ~n ~m:(2 * n) ~seed ());
  (* Scaling: the same workload on 1, 2, 4, ... domains. *)
  Printf.printf "\ndomain scaling for Lemma 6 (l=2):\n";
  let d = ref 1 in
  while !d <= Mc_run.recommended_domains () do
    show (Printf.sprintf "  %d domain(s)" !d) (Mc_run.loose_geometric ~domains:!d ~n ~ell:2 ~seed ());
    d := !d * 2
  done;
  Printf.printf
    "\nStep counts match the simulator's distribution (the algorithm is the same);\n\
     wall-clock shows the real contention behaviour of Atomic.compare_and_set.\n"
