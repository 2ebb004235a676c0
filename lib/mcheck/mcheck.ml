module Executor = Renaming_sched.Executor
module Directed = Renaming_sched.Directed
module Report = Renaming_sched.Report
module Op = Renaming_sched.Op
module Monitor = Renaming_faults.Monitor
module Shrink = Renaming_faults.Shrink
module Target = Renaming_faults.Target
module Obs = Renaming_obs.Obs
module Metrics = Renaming_obs.Metrics
module Json = Renaming_obs.Json

type bounds = {
  b_preemptions : int;
  b_crashes : int;
  b_recoveries : int;
  b_faults : int;
  b_max_ticks : int;
  b_max_schedules : int;
  b_yield_rotate : int option;
}

let default_bounds =
  {
    b_preemptions = 2;
    b_crashes = 0;
    b_recoveries = 0;
    b_faults = 0;
    b_max_ticks = 50_000;
    b_max_schedules = 200_000;
    b_yield_rotate = Some 32;
  }

type case = {
  v_kind : string;
  v_message : string;
  v_prefix : Directed.choice list;
  v_condensed : string;
  v_shrunk : Shrink.result option;
}

type stats = {
  s_target : string;
  s_engine : string;
  s_schedules : int;
  s_points : int;
  s_races : int;
  s_wakeups : int;
  s_pruned : int;
  s_budget_skipped : int;
  s_livelocks : int;
  s_violations : int;
  s_capped : bool;
  s_baseline : int option;
  s_cases : case list;
}

exception Capped

(* Mutable accumulators shared by both explorers. *)
type acc = {
  a_schedules : int ref;
  a_points : int ref;
  a_races : int ref;
  a_wakeups : int ref;
  a_pruned : int ref;
  a_budget_skipped : int ref;
  a_livelocks : int ref;
  a_violations : int ref;
  a_cases : case list ref;
  a_register : kind:string -> message:string -> Directed.result -> unit;
  a_on_schedule : (Directed.choice array -> unit) option;
}

let notify acc (run : Directed.result) =
  match acc.a_on_schedule with None -> () | Some f -> f run.Directed.taken

(* A fresh instance of [target] at [seed] and a fresh monitor for one
   execution of it. *)
let instantiate ?obs ~seed (target : Target.t) =
  let inst = target.build ~seed in
  (inst, Monitor.create ?obs ~mode:target.mode inst)

(* Classify a counted execution: a failure registers, a livelock
   counts. *)
let record acc monitor (run : Directed.result) =
  match Monitor.judge monitor run.Directed.outcome with
  | Monitor.Passed _ -> ()
  | Monitor.Livelocked _ -> incr acc.a_livelocks
  | Monitor.Failed v -> acc.a_register ~kind:v.Monitor.kind ~message:v.Monitor.message run

let prev_runnable (pt : Directed.point) =
  pt.Directed.prev >= 0 && Array.exists (fun q -> q = pt.Directed.prev) pt.Directed.runnable

(* Switching away from a still-runnable process costs one preemption,
   in both explorers, so they bound the same schedule universe (the
   differential tests rely on this). *)
let switch_cost (pt : Directed.point) pid =
  if prev_runnable pt && pt.Directed.prev <> pid then 1
  else 0

(* The unpruned enumerator: CHESS-style stateless DFS over every enabled
   alternative at every decision point, under the same preemption cost
   model as DPOR and no reduction at all — the oracle DPOR's verdicts
   and schedule counts are checked against. *)
let check_unpruned ?obs ~bounds ~acc ~seed target =
  let schedules = acc.a_schedules in
  let points = acc.a_points in
  let capped = ref false in
  (* One stateless exploration step: execute [prefix] (plus the
     non-preemptive default tail), check it, then branch on every
     alternative at every decision point past the prefix.  Each complete
     execution differs from its parent's at exactly the branched index,
     so no interleaving is visited twice. *)
  let rec explore prefix ~preemptions ~crashes ~recoveries ~faults =
    if !schedules >= bounds.b_max_schedules then raise Capped;
    incr schedules;
    let inst, monitor = instantiate ?obs ~seed target in
    let run =
      Directed.run ~max_ticks:bounds.b_max_ticks ~record_from:(List.length prefix)
        ~on_event:(Monitor.hook monitor) ~prefix inst
    in
    notify acc run;
    record acc monitor run;
    Array.iter
      (fun (pt : Directed.point) ->
        incr points;
        (* The default tail only ever schedules, so every recorded point
           past the prefix was taken as a Step. *)
        let taken_pid =
          match pt.Directed.taken with
          | Directed.Step p -> p
          | Directed.Fault _ | Directed.Crash _ | Directed.Recover _ -> assert false
        in
        let base = Array.to_list (Array.sub run.Directed.taken 0 pt.Directed.index) in
        let step_cost = switch_cost pt in
        (* Alternative schedules of other runnable processes. *)
        Array.iter
          (fun q ->
            let cost = step_cost q in
            if q <> taken_pid && cost <= preemptions then
              explore
                (base @ [ Directed.Step q ])
                ~preemptions:(preemptions - cost) ~crashes ~recoveries ~faults)
          pt.Directed.runnable;
        (* Transient-fault injections (including on the taken pid). *)
        if faults > 0 then
          Array.iteri
            (fun k q ->
              let cost = step_cost q in
              if Op.faultable pt.Directed.ops.(k) && cost <= preemptions then
                explore
                  (base @ [ Directed.Fault q ])
                  ~preemptions:(preemptions - cost) ~crashes ~recoveries ~faults:(faults - 1))
            pt.Directed.runnable;
        (* Crash / recovery injections. *)
        if crashes > 0 then
          Array.iter
            (fun q ->
              explore
                (base @ [ Directed.Crash q ])
                ~preemptions ~crashes:(crashes - 1) ~recoveries ~faults)
            pt.Directed.runnable;
        if recoveries > 0 then
          Array.iter
            (fun q ->
              explore
                (base @ [ Directed.Recover q ])
                ~preemptions ~crashes ~recoveries:(recoveries - 1) ~faults)
            pt.Directed.crashed)
      run.Directed.points
  in
  (try
     explore [] ~preemptions:bounds.b_preemptions ~crashes:bounds.b_crashes
       ~recoveries:bounds.b_recoveries ~faults:bounds.b_faults
   with Capped -> capped := true);
  !capped

(* ------------------------------------------------------------------ *)
(* Source-DPOR engine with wakeup trees.

   The exploration is still stateless CHESS-style re-execution, but the
   alternatives at a decision point are no longer "every other enabled
   process": they come exclusively from *reversible races* detected on
   completed executions (plus the exhaustively enumerated fault /
   crash / recovery injections).  After each run, every race (i, j) —
   two dependent steps of different pids with no happens-before path
   between them — yields a reordering witness that is inserted into the
   wakeup tree of node [i] unless an already-explored branch (sleep
   set), a pending branch (tree cover) or the preemption budget rules
   it out.  Sleep sets record fully-explored branches per node, so a
   committed branch is never re-inserted: no explored schedule is ever
   revisited.

   Dependence comes from the audited Renaming_analysis.Footprint table
   through {!Races.dependent}: the engine is only sound if that table
   never claims independence for a non-commuting pair, and `renaming
   analyze` machine-checks exactly that (pairwise commutation + dynamic
   access-set coverage + agreement with {!Races.dependent}). *)

type nd = {
  nd_point : Directed.point;
  nd_preempt : int;
  nd_crashes : int;
  nd_recoveries : int;
  nd_faults : int;
  mutable nd_chosen : Directed.choice;
  mutable nd_event : Races.event;
  mutable nd_sleep : (int * Op.t) list;
  nd_w : Wakeup.t;  (* pending race-reversal branches, exploration order *)
  mutable nd_inj : Directed.choice list;  (* pending injection branches *)
  mutable nd_next : Wakeup.t;  (* continuation subtree for the child under [nd_chosen] *)
}

let op_at (pt : Directed.point) pid =
  let r = ref None in
  Array.iteri (fun k q -> if q = pid then r := Some pt.Directed.ops.(k)) pt.Directed.runnable;
  match !r with
  | Some o -> o
  | None -> invalid_arg (Printf.sprintf "Mcheck.op_at: pid %d not runnable" pid)

let event_of_choice (pt : Directed.point) = function
  | Directed.Step pid -> Races.step ~pid (op_at pt pid)
  | Directed.Fault pid | Directed.Crash pid | Directed.Recover pid -> Races.barrier ~pid

exception Budget_exceeded

let check_dpor ?obs ~bounds ~acc ~seed target =
  let path_rev = ref [] in
  (* path head = deepest node *)
  let depth = ref 0 in
  let push nd =
    path_rev := nd :: !path_rev;
    incr depth
  in
  let pop_node () =
    match !path_rev with
    | [] -> ()
    | _ :: rest ->
      path_rev := rest;
      decr depth
  in
  let mk_node ~parent (pt : Directed.point) =
    let preempt, crashes, recoveries, faults, sleep, w, next =
      match parent with
      | None ->
        ( bounds.b_preemptions,
          bounds.b_crashes,
          bounds.b_recoveries,
          bounds.b_faults,
          [],
          Wakeup.create (),
          Wakeup.create () )
      | Some p ->
        let pre = ref p.nd_preempt in
        let cr = ref p.nd_crashes in
        let re = ref p.nd_recoveries in
        let fa = ref p.nd_faults in
        let sleep =
          match (p.nd_chosen, p.nd_event.Races.ev_op) with
          | Directed.Step q, Some o ->
            pre := !pre - switch_cost p.nd_point q;
            List.filter (fun (r, opr) -> r <> q && not (Races.dependent opr o)) p.nd_sleep
          | Directed.Fault q, _ ->
            pre := !pre - switch_cost p.nd_point q;
            decr fa;
            []
          | Directed.Crash _, _ ->
            decr cr;
            []
          | Directed.Recover _, _ ->
            decr re;
            []
          | Directed.Step _, None -> assert false
        in
        if !pre < 0 then raise Budget_exceeded;
        (* Thread the wakeup continuation: the prefix is descending the
           leftmost chain of the branch taken at the parent, so the
           child inherits the branch's remaining siblings as pending. *)
        let w, next =
          if Wakeup.is_empty p.nd_next then (Wakeup.create (), Wakeup.create ())
          else begin
            match Wakeup.pop p.nd_next with
            | None -> assert false
            | Some b ->
              (match pt.Directed.taken with
              | Directed.Step q when q = b.Wakeup.b_pid -> ()
              | _ -> assert false);
              let w = p.nd_next in
              p.nd_next <- Wakeup.create ();
              (w, b.Wakeup.b_sub)
          end
        in
        (!pre, !cr, !re, !fa, sleep, w, next)
    in
    (* Injection alternatives at this point, enumerated exhaustively
       (budget-gated), exactly as the unpruned enumerator does. *)
    let inj = ref [] in
    if recoveries > 0 then Array.iter (fun q -> inj := Directed.Recover q :: !inj) pt.Directed.crashed;
    if crashes > 0 then Array.iter (fun q -> inj := Directed.Crash q :: !inj) pt.Directed.runnable;
    if faults > 0 then
      Array.iteri
        (fun k q ->
          if Op.faultable pt.Directed.ops.(k) && switch_cost pt q <= preempt then
            inj := Directed.Fault q :: !inj)
        pt.Directed.runnable;
    {
      nd_point = pt;
      nd_preempt = preempt;
      nd_crashes = crashes;
      nd_recoveries = recoveries;
      nd_faults = faults;
      nd_chosen = pt.Directed.taken;
      nd_event = event_of_choice pt pt.Directed.taken;
      nd_sleep = sleep;
      nd_w = w;
      nd_inj = !inj;
      nd_next = next;
    }
  in
  let rec leftmost t =
    match Wakeup.branches t with
    | [] -> []
    | b :: _ -> Directed.Step b.Wakeup.b_pid :: leftmost b.Wakeup.b_sub
  in
  let capped = ref false in
  let continue_ = ref true in
  while !continue_ do
    if !(acc.a_schedules) >= bounds.b_max_schedules then begin
      capped := true;
      continue_ := false
    end
    else begin
      (* Events at indices >= [from] are new in this execution (the
         re-chosen backtrack node and everything after it). *)
      let from = if !depth = 0 then 0 else !depth - 1 in
      let prefix =
        List.rev_map (fun nd -> nd.nd_chosen) !path_rev
        @ (match !path_rev with [] -> [] | nd :: _ -> leftmost nd.nd_next)
      in
      let inst, monitor = instantiate ?obs ~seed target in
      let run =
        Directed.run ~max_ticks:bounds.b_max_ticks ~record_from:0
          ?yield_rotate:bounds.b_yield_rotate ~on_event:(Monitor.hook monitor) ~prefix inst
      in
      let livelocked =
        match run.Directed.outcome with
        | Directed.Finished report -> Report.is_livelock report
        | Directed.Raised _ -> false
      in
      let depth0 = !depth in
      let ok =
        if run.Directed.dropped > 0 then false
        else if livelocked then true
          (* a livelocked tail can be tens of thousands of points long:
             count it, but do not expand nodes or detect races on it *)
        else
          try
            Array.iteri
              (fun k pt ->
                if k >= depth0 then
                  push (mk_node ~parent:(match !path_rev with [] -> None | p :: _ -> Some p) pt))
              run.Directed.points;
            true
          with Budget_exceeded ->
            while !depth > depth0 do
              pop_node ()
            done;
            false
      in
      if not ok then incr acc.a_budget_skipped
      else begin
        incr acc.a_schedules;
        notify acc run;
        record acc monitor run;
        if not livelocked then begin
          acc.a_points := !(acc.a_points) + (!depth - depth0);
          (* Race detection on the completed execution, and witness
             insertion at each race's first node. *)
          let nodes = Array.of_list (List.rev !path_rev) in
          let events = Array.map (fun nd -> nd.nd_event) nodes in
          let pids = Array.length inst.Executor.programs in
          let clocks, races = Races.races ~pids ~from events in
          let try_insert nd v =
            if
              List.exists (fun (q, oq) -> Wakeup.weak_initial_mem v ~pid:q ~op:oq) nd.nd_sleep
            then incr acc.a_pruned
            else
              match Wakeup.insert nd.nd_w v with
              | Wakeup.Inserted -> incr acc.a_wakeups
              | Wakeup.Covered -> incr acc.a_pruned
          in
          List.iter
            (fun r ->
              incr acc.a_races;
              let v =
                List.map
                  (fun k ->
                    match events.(k) with
                    | { Races.ev_pid; ev_op = Some o } -> (ev_pid, o)
                    | { Races.ev_op = None; _ } -> assert false)
                  (Races.witness ~clocks events r)
              in
              let nd = nodes.(r.Races.r_first) in
              let p0, _ = List.hd v in
              if switch_cost nd.nd_point p0 <= nd.nd_preempt then try_insert nd v
              else begin
                (* Bounded-DPOR conservative backtrack point: the
                   reversal needs a preemption the budget no longer
                   allows.  Dropping it outright would lose even the
                   free reorderings a bounded run can reach (at budget 0
                   the unpruned enumerator still explores every
                   run-to-completion order), so fall back to the one
                   switch that is always free — scheduling the racing
                   process first, at the root.  Deliberately lazy:
                   reversals needing a mid-trace preemption the budget
                   cannot pay stay skipped, mirroring the unpruned
                   enumerator's budget gating. *)
                let nd0 = nodes.(0) in
                if
                  Array.exists (fun q -> q = p0) nd0.nd_point.Directed.runnable
                  && switch_cost nd0.nd_point p0 = 0
                then
                  match nd0.nd_chosen with
                  | Directed.Step q when q = p0 ->
                    (* the subtree below the root already schedules
                       [p0] first — inserting it again would duplicate
                       that whole subtree *)
                    incr acc.a_pruned
                  | _ -> try_insert nd0 [ (p0, op_at nd0.nd_point p0) ]
                else incr acc.a_budget_skipped
              end)
            races
        end
      end;
      (* Backtrack to the deepest node with a pending alternative; the
         branch just finished joins that node's sleep set. *)
      let rec backtrack () =
        match !path_rev with
        | [] -> continue_ := false
        | nd :: _ -> (
          (match (nd.nd_chosen, nd.nd_event.Races.ev_op) with
          | Directed.Step p, Some o -> nd.nd_sleep <- (p, o) :: nd.nd_sleep
          | _ -> ());
          match Wakeup.pop nd.nd_w with
          | Some b ->
            nd.nd_chosen <- Directed.Step b.Wakeup.b_pid;
            nd.nd_event <- Races.step ~pid:b.Wakeup.b_pid b.Wakeup.b_op;
            nd.nd_next <- b.Wakeup.b_sub
          | None -> (
            match nd.nd_inj with
            | c :: tl ->
              nd.nd_inj <- tl;
              nd.nd_chosen <- c;
              nd.nd_event <- event_of_choice nd.nd_point c;
              nd.nd_next <- Wakeup.create ()
            | [] ->
              pop_node ();
              backtrack ()))
      in
      backtrack ()
    end
  done;
  !capped

(* ------------------------------------------------------------------ *)

let explore ~engine ~explorer ?(bounds = default_bounds) ?(shrink = true) ?(max_cases = 8)
    ?baseline ?on_schedule ?obs ~seed (target : Target.t) =
  let schedules = ref 0 in
  let points = ref 0 in
  let races = ref 0 in
  let wakeups = ref 0 in
  let pruned = ref 0 in
  let budget_skipped = ref 0 in
  let livelocks = ref 0 in
  let violations = ref 0 in
  let cases = ref [] in
  let register ~kind ~message (run : Directed.result) =
    incr violations;
    if List.length !cases < max_cases then begin
      let prefix = Array.to_list run.Directed.taken in
      let shrunk =
        if not shrink then None
        else
          Shrink.shrink
            {
              Shrink.target;
              seed;
              choices = prefix;
              max_ticks = bounds.b_max_ticks;
              tau_cadence = 1;
            }
      in
      cases :=
        {
          v_kind = kind;
          v_message = message;
          v_prefix = prefix;
          v_condensed = Directed.condensed ~points:run.Directed.points run.Directed.taken;
          v_shrunk = shrunk;
        }
        :: !cases
    end
  in
  let acc =
    {
      a_schedules = schedules;
      a_points = points;
      a_races = races;
      a_wakeups = wakeups;
      a_pruned = pruned;
      a_budget_skipped = budget_skipped;
      a_livelocks = livelocks;
      a_violations = violations;
      a_cases = cases;
      a_register = register;
      a_on_schedule = on_schedule;
    }
  in
  let capped = explorer ?obs ~bounds ~acc ~seed target in
  let stats =
    {
      s_target = target.name;
      s_engine = engine;
      s_schedules = !schedules;
      s_points = !points;
      s_races = !races;
      s_wakeups = !wakeups;
      s_pruned = !pruned;
      s_budget_skipped = !budget_skipped;
      s_livelocks = !livelocks;
      s_violations = !violations;
      s_capped = capped;
      s_baseline = baseline;
      s_cases = List.rev !cases;
    }
  in
  (match obs with
  | None -> ()
  | Some o ->
    Metrics.add (Obs.counter o "mcheck/targets") 1;
    Metrics.add (Obs.counter o "mcheck/schedules") stats.s_schedules;
    Metrics.add (Obs.counter o "mcheck/points") stats.s_points;
    Metrics.add (Obs.counter o "mcheck/races") stats.s_races;
    Metrics.add (Obs.counter o "mcheck/wakeups") stats.s_wakeups;
    Metrics.add (Obs.counter o "mcheck/pruned") stats.s_pruned;
    Metrics.add (Obs.counter o "mcheck/violations") stats.s_violations;
    Metrics.add (Obs.counter o "mcheck/livelocks") stats.s_livelocks);
  stats

let check = explore ~engine:"dpor" ~explorer:check_dpor
let enumerate = explore ~engine:"unpruned" ~explorer:check_unpruned

let reduction s =
  match s.s_baseline with
  | Some b when b > 0 -> Some (float_of_int s.s_schedules /. float_of_int b)
  | _ -> None

let pp_stats fmt s =
  Format.fprintf fmt
    "@[<v>%-28s %8d schedules %8d points %6d pruned %4d wakeups %3d livelocks %3d violations%s%s@ "
    s.s_target s.s_schedules s.s_points s.s_pruned s.s_wakeups s.s_livelocks s.s_violations
    (match reduction s with
    | Some r -> Printf.sprintf "  [%.0f%% of %d-schedule baseline]" (100. *. r) (Option.get s.s_baseline)
    | None -> "")
    (if s.s_capped then " (CAPPED)" else "");
  List.iter
    (fun c ->
      Format.fprintf fmt "  violation [%s]: prefix %d choices (%s)" c.v_kind
        (List.length c.v_prefix) c.v_condensed;
      (match c.v_shrunk with
      | Some r ->
        Format.fprintf fmt " -> shrunk to %d (%d replays): %s"
          (List.length r.Shrink.r_choices)
          r.Shrink.r_replays
          (String.concat "; " (List.map Directed.choice_to_string r.Shrink.r_choices))
      | None -> ());
      Format.pp_print_cut fmt ())
    s.s_cases;
  Format.fprintf fmt "@]"

let case_to_json c =
  Json.Obj
    [
      ("kind", Json.String c.v_kind);
      ("prefix_length", Json.Int (List.length c.v_prefix));
      ("condensed", Json.String c.v_condensed);
      ( "shrunk",
        match c.v_shrunk with
        | None -> Json.Null
        | Some r ->
          Json.Obj
            [
              ("length", Json.Int (List.length r.Shrink.r_choices));
              ("replays", Json.Int r.Shrink.r_replays);
              ( "choices",
                Json.List
                  (List.map
                     (fun c -> Json.String (Directed.choice_to_string c))
                     r.Shrink.r_choices) );
            ] );
    ]

let stats_to_json s =
  Json.Obj
    [
      ("target", Json.String s.s_target);
      ("engine", Json.String s.s_engine);
      ("schedules", Json.Int s.s_schedules);
      ("points", Json.Int s.s_points);
      ("races", Json.Int s.s_races);
      ("wakeups", Json.Int s.s_wakeups);
      ("pruned", Json.Int s.s_pruned);
      ("budget_skipped", Json.Int s.s_budget_skipped);
      ("livelocks", Json.Int s.s_livelocks);
      ("violations", Json.Int s.s_violations);
      ("capped", Json.Bool s.s_capped);
      ("baseline", Option.fold ~none:Json.Null ~some:(fun b -> Json.Int b) s.s_baseline);
      ("reduction", Option.fold ~none:Json.Null ~some:(Json.fixed 4) (reduction s));
      ("cases", Json.List (List.map case_to_json s.s_cases));
    ]

let to_json all =
  let total field = Json.Int (List.fold_left (fun acc s -> acc + field s) 0 all) in
  Json.Obj
    [
      ("schema", Json.String "renaming.mcheck/2");
      ("instances", Json.Int (List.length all));
      ("schedules", total (fun s -> s.s_schedules));
      ("violations", total (fun s -> s.s_violations));
      ("livelocks", total (fun s -> s.s_livelocks));
      ("targets", Json.List (List.map stats_to_json all));
    ]
