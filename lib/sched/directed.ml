module Vec = Renaming_stats.Vec

type choice =
  | Step of int
  | Fault of int
  | Crash of int
  | Recover of int

let pp_choice fmt = function
  | Step pid -> Format.fprintf fmt "step %d" pid
  | Fault pid -> Format.fprintf fmt "fault %d" pid
  | Crash pid -> Format.fprintf fmt "crash %d" pid
  | Recover pid -> Format.fprintf fmt "recover %d" pid

let choice_to_string c = Format.asprintf "%a" pp_choice c

let choice_of_event : Executor.event -> choice option = function
  | Stepped { pid; response = Op.Faulted; _ } -> Some (Fault pid)
  | Stepped { pid; _ } -> Some (Step pid)
  | Crashed { pid; _ } -> Some (Crash pid)
  | Recovered { pid; _ } -> Some (Recover pid)
  | Returned _ -> None

type divergence = {
  at : int;
  expected : choice option;
  time : int;
  runnable : int list;
  crashed : int list;
}

exception Divergence of divergence

let pp_divergence fmt d =
  let pp_pids fmt pids =
    Format.fprintf fmt "{%s}" (String.concat "," (List.map string_of_int pids))
  in
  Format.fprintf fmt "replay diverged at decision %d (t=%d): %s but runnable=%a crashed=%a" d.at
    d.time
    (match d.expected with
    | Some c -> "wanted " ^ choice_to_string c
    | None -> "schedule exhausted")
    pp_pids d.runnable pp_pids d.crashed

let () =
  Printexc.register_printer (function
    | Divergence d -> Some (Format.asprintf "Directed.Divergence: %a" pp_divergence d)
    | _ -> None)

type point = {
  index : int;
  time : int;
  prev : int;
  runnable : int array;
  crashed : int array;
  ops : Op.t array;
  taken : choice;
}

type outcome = Finished of Report.t | Raised of exn

type result = {
  points : point array;
  taken : choice array;
  dropped : int;
  outcome : outcome;
}

let run ?obs ?(max_ticks = 100_000) ?(tau_cadence = 1) ?(strict = false) ?(record_from = 0)
    ?yield_rotate ?on_event ~prefix instance =
  let n = Array.length instance.Executor.programs in
  let remaining = ref prefix in
  let points = Vec.create () in
  let taken = Vec.create () in
  let dropped = ref 0 in
  let prev = ref (-1) in
  let run_len = ref 0 in
  let index = ref 0 in
  let fault_next = ref false in
  let inject ~time:_ ~pid:_ ~op:_ =
    if !fault_next then begin
      fault_next := false;
      true
    end
    else false
  in
  let feasible (view : Adversary.view) = function
    | Step pid | Crash pid -> view.is_runnable pid
    | Fault pid -> view.is_runnable pid && Op.faultable (view.pending_op pid)
    | Recover pid -> view.is_crashed pid
  in
  let sorted_runnable (view : Adversary.view) =
    let arr = Array.init view.runnable_count view.runnable_nth in
    Array.sort compare arr;
    arr
  in
  let crashed_pids (view : Adversary.view) =
    let acc = ref [] in
    for pid = n - 1 downto 0 do
      if view.is_crashed pid then acc := pid :: !acc
    done;
    Array.of_list !acc
  in
  let diverge (view : Adversary.view) expected =
    raise
      (Divergence
         {
           at = !index;
           expected;
           time = view.time;
           runnable = Array.to_list (sorted_runnable view);
           crashed = Array.to_list (crashed_pids view);
         })
  in
  (* The fairness/yield bound: a pid at a [Yield] (deliberate backoff)
     point is waiting on somebody else's progress, so once it has run
     [yield_rotate] consecutive steps the default policy hands the
     processor to the cyclically next runnable pid at its next yield
     point instead of spinning the waiter against the livelock guard.
     Rotation only happens at yield points, so it never breaks into the
     middle of a protocol's critical section.  Off ([None]) by default. *)
  let rotate_due (view : Adversary.view) =
    match yield_rotate with
    | None -> false
    | Some limit ->
      !prev >= 0 && !run_len >= limit && view.runnable_count > 1
      && view.is_runnable !prev
      && view.pending_op !prev = Op.Yield
  in
  let default (view : Adversary.view) =
    if !prev >= 0 && view.is_runnable !prev && not (rotate_due view) then Step !prev
    else begin
      (* Lowest runnable pid; under rotation, lowest runnable pid
         strictly above [prev], wrapping around. *)
      let best = ref max_int in
      let best_above = ref max_int in
      for i = 0 to view.runnable_count - 1 do
        let pid = view.runnable_nth i in
        if pid < !best then best := pid;
        if pid > !prev && pid < !best_above then best_above := pid
      done;
      if rotate_due view then Step (if !best_above < max_int then !best_above else !best)
      else Step !best
    end
  in
  let decide (view : Adversary.view) =
    let rec pick () =
      match !remaining with
      | [] -> if strict then diverge view None else default view
      | c :: rest ->
        if feasible view c then begin
          remaining := rest;
          c
        end
        else if strict then diverge view (Some c)
        else begin
          remaining := rest;
          incr dropped;
          pick ()
        end
    in
    let c = pick () in
    if !index >= record_from then begin
      let runnable = sorted_runnable view in
      Vec.add_last points
        {
          index = !index;
          time = view.time;
          prev = !prev;
          runnable;
          crashed = crashed_pids view;
          ops = Array.map view.pending_op runnable;
          taken = c;
        }
    end;
    Vec.add_last taken c;
    incr index;
    match c with
    | Step pid ->
      (if yield_rotate <> None then
         if pid = !prev then incr run_len else run_len := 1);
      prev := pid;
      Adversary.Schedule pid
    | Fault pid ->
      run_len := 0;
      prev := pid;
      fault_next := true;
      Adversary.Schedule pid
    | Crash pid -> Adversary.Crash pid
    | Recover pid -> Adversary.Recover pid
  in
  let adversary = { Adversary.name = "directed"; decide } in
  let outcome =
    try Finished (Executor.run ?obs ~max_ticks ~tau_cadence ~inject ?on_event ~adversary instance)
    with e -> Raised e
  in
  { points = Vec.to_array points; taken = Vec.to_array taken; dropped = !dropped; outcome }

(* --- condensed (dejafu-style) schedule rendering ---

   A schedule is rendered as `--`-joined segments: [S<pid>] starts or
   non-preemptively continues pid (the previous process finished,
   blocked or crashed), [P<pid>] preempts a still-runnable process,
   [F<pid>]/[C<pid>]/[R<pid>] are fault/crash/recover injections, and a
   run of k > 1 consecutive steps of one pid collapses to one segment
   with an [xk] suffix — so unlike dejafu's rendering the string stays
   replayable.  Example: [S0x2--P1--S2]. *)

let condensed ?(points = [||]) (taken : choice array) =
  let preemptive = Hashtbl.create 16 in
  Array.iter
    (fun (pt : point) ->
      match pt.taken with
      | Step pid | Fault pid ->
        if pt.prev >= 0 && pt.prev <> pid && Array.exists (fun q -> q = pt.prev) pt.runnable then
          Hashtbl.replace preemptive pt.index ()
      | Crash _ | Recover _ -> ())
    points;
  let have_points = Array.length points > 0 in
  let buf = Buffer.create 64 in
  let flush_segment ~kind ~pid ~count =
    if Buffer.length buf > 0 then Buffer.add_string buf "--";
    Buffer.add_char buf kind;
    Buffer.add_string buf (string_of_int pid);
    if count > 1 then Buffer.add_string buf (Printf.sprintf "x%d" count)
  in
  let seg = ref None in
  Array.iteri
    (fun i c ->
      let step_kind () =
        if have_points then if Hashtbl.mem preemptive i then 'P' else 'S'
        else if i = 0 then 'S'
        else 'P' (* no runnability info: label every switch preemptive *)
      in
      match (c, !seg) with
      | Step pid, Some (kind, p, count) when p = pid -> seg := Some (kind, p, count + 1)
      | Step pid, prev ->
        (match prev with Some (k, p, n) -> flush_segment ~kind:k ~pid:p ~count:n | None -> ());
        seg := Some (step_kind (), pid, 1)
      | (Fault pid | Crash pid | Recover pid), prev ->
        (match prev with Some (k, p, n) -> flush_segment ~kind:k ~pid:p ~count:n | None -> ());
        let kind = match c with Fault _ -> 'F' | Crash _ -> 'C' | _ -> 'R' in
        flush_segment ~kind ~pid ~count:1;
        seg := None)
    taken;
  (match !seg with Some (k, p, n) -> flush_segment ~kind:k ~pid:p ~count:n | None -> ());
  Buffer.contents buf

let split_on_string ~sep s =
  let slen = String.length sep and len = String.length s in
  let rec go acc start i =
    if i + slen > len then List.rev (String.sub s start (len - start) :: acc)
    else if String.sub s i slen = sep then go (String.sub s start (i - start) :: acc) (i + slen) (i + slen)
    else go acc start (i + 1)
  in
  go [] 0 0

let choices_of_condensed s =
  let ( let* ) = Result.bind in
  let segment seg =
    if String.length seg < 2 then Error (Printf.sprintf "malformed condensed segment %S" seg)
    else
      let kind = seg.[0] in
      let rest = String.sub seg 1 (String.length seg - 1) in
      let pid_str, count =
        match String.index_opt rest 'x' with
        | None -> (rest, Ok 1)
        | Some i ->
          ( String.sub rest 0 i,
            match int_of_string_opt (String.sub rest (i + 1) (String.length rest - i - 1)) with
            | Some c when c >= 1 -> Ok c
            | _ -> Error (Printf.sprintf "bad repeat count in condensed segment %S" seg) )
      in
      let* count in
      match (int_of_string_opt pid_str, kind) with
      | None, _ -> Error (Printf.sprintf "bad pid in condensed segment %S" seg)
      | Some pid, ('S' | 'P') -> Ok (List.init count (fun _ -> Step pid))
      | Some pid, 'F' -> Ok (List.init count (fun _ -> Fault pid))
      | Some pid, 'C' -> Ok (List.init count (fun _ -> Crash pid))
      | Some pid, 'R' -> Ok (List.init count (fun _ -> Recover pid))
      | Some _, k -> Error (Printf.sprintf "unknown condensed segment kind %C" k)
  in
  let s = String.trim s in
  if String.equal s "" then Ok []
  else
    List.fold_left
      (fun acc seg ->
        let* acc in
        let* cs = segment (String.trim seg) in
        Ok (acc @ cs))
      (Ok []) (split_on_string ~sep:"--" s)
