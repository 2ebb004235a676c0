module Sample = Renaming_rng.Sample

type view = {
  mutable time : int;
  mutable runnable_count : int;
  runnable_nth : int -> int;
  is_runnable : int -> bool;
  is_crashed : int -> bool;
  pending_op : int -> Op.t;
  memory : Memory.t;
}

type decision = Schedule of int | Crash of int | Recover of int

type t = { name : string; decide : view -> decision }

let round_robin () =
  let cursor = ref 0 in
  {
    name = "round-robin";
    decide =
      (fun view ->
        (* [c mod count], dividing only once the cursor has run off
           the live set (a wrap, or a live set that shrank). *)
        let c = !cursor and count = view.runnable_count in
        let i = if c < count then c else c mod count in
        cursor := i + 1;
        Schedule (view.runnable_nth i));
  }

let uniform rng =
  {
    name = "uniform";
    decide = (fun view -> Schedule (view.runnable_nth (Sample.uniform_int rng view.runnable_count)));
  }

let fold_runnable view ~init ~f =
  let acc = ref init in
  for i = 0 to view.runnable_count - 1 do
    acc := f !acc (view.runnable_nth i)
  done;
  !acc

let lifo =
  {
    name = "lifo";
    decide = (fun view -> Schedule (fold_runnable view ~init:(-1) ~f:max));
  }

let min_runnable view = fold_runnable view ~init:max_int ~f:min

let op_is_wasted view pid =
  match view.pending_op pid with
  | Op.Tas_name i -> Renaming_shm.Tas_array.is_set (Memory.names view.memory) i
  | Op.Tas_aux i -> Renaming_shm.Tas_array.is_set (Memory.aux view.memory) i
  | Op.Read_name _ | Op.Read_aux _ | Op.Owned_name _ | Op.Tau_submit _ | Op.Tau_poll _
  | Op.Read_word _ | Op.Write_word _ | Op.Release_name _ | Op.Yield ->
    false

(* The adaptive heuristics inspect at most this many runnable processes
   per tick, keeping them usable at large n; the model allows full
   inspection, this is purely a simulation-cost bound. *)
let adaptive_scan_window = 512

let adaptive_contention =
  {
    name = "adaptive-contention";
    decide =
      (fun view ->
        (* Schedule a process whose TAS is doomed, if any; otherwise the
           lowest pid (delaying everyone else equally). *)
        let doomed = ref (-1) in
        (try
           for i = 0 to min adaptive_scan_window view.runnable_count - 1 do
             let pid = view.runnable_nth i in
             if op_is_wasted view pid then begin
               doomed := pid;
               raise Exit
             end
           done
         with Exit -> ());
        if !doomed <> -1 then Schedule !doomed else Schedule (min_runnable view));
  }

let colluding =
  {
    name = "colluding";
    decide =
      (fun view ->
        (* Prefer a process whose target register is shared with another
           runnable process, so running the group back-to-back makes all
           but one lose. *)
        let targets = Hashtbl.create 16 in
        let best = ref (-1) and best_count = ref 1 in
        for i = 0 to min adaptive_scan_window view.runnable_count - 1 do
          let pid = view.runnable_nth i in
          match Op.target_name (view.pending_op pid) with
          | Some reg ->
            let count, lowest =
              match Hashtbl.find_opt targets reg with
              | Some (c, p) -> (c + 1, min p pid)
              | None -> (1, pid)
            in
            Hashtbl.replace targets reg (count, lowest);
            if count > !best_count then begin
              best := lowest;
              best_count := count
            end
          | None -> ()
        done;
        if !best <> -1 then Schedule !best else Schedule (min_runnable view));
  }

let with_crashes ~base ~crash_times =
  let pendingr = ref (List.sort compare crash_times) in
  {
    name = base.name ^ "+crashes";
    decide =
      (fun view ->
        let rec try_crash () =
          match !pendingr with
          | (at, pid) :: rest when at <= view.time ->
            pendingr := rest;
            if view.is_runnable pid && view.runnable_count > 1 then Some (Crash pid)
            else try_crash ()
          | _ -> None
        in
        match try_crash () with
        | Some d -> d
        | None -> base.decide view);
  }

let with_crash_recovery ~base ~crashes ~recover_after =
  if recover_after < 1 then invalid_arg "Adversary.with_crash_recovery: recover_after must be >= 1";
  let pending_crashes = ref (List.sort compare crashes) in
  (* Filled as crashes actually land; times are monotone because crashes
     are processed in time order and all get the same recovery delay. *)
  let pending_recoveries = ref [] in
  {
    name = base.name ^ "+crash-recovery";
    decide =
      (fun view ->
        let rec try_recover () =
          match !pending_recoveries with
          | (at, pid) :: rest when at <= view.time ->
            pending_recoveries := rest;
            if view.is_crashed pid then Some (Recover pid) else try_recover ()
          | _ -> None
        in
        let rec try_crash () =
          match !pending_crashes with
          | (at, pid) :: rest when at <= view.time ->
            pending_crashes := rest;
            (* Never kill the last runnable process: the executor stops
               when nobody can step, which would strand the pending
               recoveries forever. *)
            if view.is_runnable pid && view.runnable_count > 1 then begin
              pending_recoveries := !pending_recoveries @ [ (view.time + recover_after, pid) ];
              Some (Crash pid)
            end
            else try_crash ()
          | _ -> None
        in
        match try_recover () with
        | Some d -> d
        | None -> (
          match try_crash () with
          | Some d -> d
          | None -> base.decide view));
  }
