(* Long runs of the lossy net churn must stay in bounded memory.

   [soak_net.exe] runs the default lossy [Net_churn] configuration at
   10^5 and at 10^6 sessions, each in a fresh process of its own
   ([soak_net.exe --run N]), with the refinement spec on the router's
   tap as every chaos run has it, and exits 1 if the long run's peak
   major heap is more than 1.25 times the short run's, or if either
   run is unsafe.  State that grows with the number of sessions (a table that
   never forgets, a queue that never drains) fails it; state bounded by
   the number of clients, slices and messages in flight does not. *)

module Net_churn = Renaming_service.Net_churn
module Transport = Renaming_service.Transport
module Lease_adapter = Renaming_refine.Lease_adapter
module Check = Renaming_refine.Check

let short = 100_000
let long = 1_000_000
let max_growth = 1.25

let run sessions =
  let faults =
    Transport.make_faults ~drop:0.05 ~duplicate:0.05 ~reorder:0.1 ~reorder_extra:0.05 ()
  in
  let s, refine =
    Lease_adapter.run (Net_churn.make_config ~sessions_target:sessions ~faults ()) ~seed:1L
  in
  let safe =
    s.Net_churn.violation = None && (not s.Net_churn.livelocked) && s.Net_churn.double_grants = 0
    && Check.events refine > 0
  in
  Printf.printf "%d %d %b\n" s.Net_churn.sessions (Gc.quick_stat ()).Gc.top_heap_words safe

(* Run [--run n] in a child process; its peak heap, and whether it was safe. *)
let child n =
  let ic = Unix.open_process_args_in Sys.executable_name [| Sys.executable_name; "--run"; string_of_int n |] in
  let line = input_line ic in
  (match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> ()
  | _ -> failwith (Printf.sprintf "soak: the %d-session run failed" n));
  Scanf.sscanf line "%d %d %B" (fun sessions words safe ->
      Printf.printf "%9d sessions: peak heap %9d words (%.1f MB), safe %b\n%!" sessions words
        (float_of_int (words * 8) /. 1e6) safe;
      (words, safe))

let () =
  match Sys.argv with
  | [| _; "--run"; n |] -> run (int_of_string n)
  | [| _ |] ->
    let w_short, safe_short = child short in
    let w_long, safe_long = child long in
    let growth = float_of_int w_long /. float_of_int w_short in
    Printf.printf "growth %.3f (bound %.2f)\n" growth max_growth;
    if growth > max_growth || not (safe_short && safe_long) then exit 1
  | _ ->
    prerr_endline "usage: soak_net.exe [--run SESSIONS]";
    exit 2
