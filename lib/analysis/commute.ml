module Op = Renaming_sched.Op
module Memory = Renaming_sched.Memory
module Executor = Renaming_sched.Executor
module Adversary = Renaming_sched.Adversary
module Tas_array = Renaming_shm.Tas_array
module Tau_register = Renaming_device.Tau_register

type failure = { f_check : string; f_detail : string }

type audit = { a_checked : int; a_failures : failure list }

let pp_failure fmt f = Format.fprintf fmt "[%s] %s" f.f_check f.f_detail

let string_of_op op = Format.asprintf "%a" Op.pp op

let string_of_response r = Format.asprintf "%a" Op.pp_response r

(* --- pairwise commutation audit --- *)

(* The audit memory: enough room for a shared index and a disjoint
   index in every region, plus two τ-registers, answering pids 0-2, so
   device operations are executable (they never are under a sound
   table, which must declare them Opaque — but a broken table should
   fail the audit, not crash it). *)
let fresh_memory () =
  let taus = Array.init 2 (fun _ -> Tau_register.create ~tau:1 ~width:2 ()) in
  Memory.create ~namespace:4 ~aux:4 ~words:4 ~taus ~processes:3 ()

(* Everything observable about the audit memory except the τ-register
   device state — device operations are excluded from pair execution
   (see [audit_pairs]), so two executions agree iff their fingerprints
   and responses agree. *)
let fingerprint mem =
  let cells arr =
    String.concat ","
      (List.init (Tas_array.size arr) (fun i ->
           match Tas_array.owner arr i with None -> "-" | Some p -> string_of_int p))
  in
  Printf.sprintf "names:%s|aux:%s|words:%s"
    (cells (Memory.names mem))
    (cells (Memory.aux mem))
    (String.concat "," (Array.to_list (Array.map string_of_int (Memory.words mem))))

let is_device (op : Op.t) = match op with Op.Tau_submit _ | Op.Tau_poll _ -> true | _ -> false

(* Initial states the pairs are executed from: TAS outcomes, ownership
   tests and releases all behave differently depending on who (if
   anyone) holds the touched cells, so commutation must hold from every
   representative pre-state, not just the empty one. *)
let prestates =
  let claim_all ~pid mem =
    List.iter
      (fun idx ->
        ignore (Memory.apply mem ~pid (Op.Tas_name idx));
        ignore (Memory.apply mem ~pid (Op.Tas_aux idx)))
      [ 0; 1 ]
  in
  [
    ("empty", fun _ -> ());
    ( "shared-owned-by-first",
      fun mem ->
        ignore (Memory.apply mem ~pid:0 (Op.Tas_name 0));
        ignore (Memory.apply mem ~pid:0 (Op.Tas_aux 0));
        ignore (Memory.apply mem ~pid:0 (Op.Write_word { idx = 0; value = 5 })) );
    ( "shared-owned-by-second",
      fun mem ->
        ignore (Memory.apply mem ~pid:1 (Op.Tas_name 0));
        ignore (Memory.apply mem ~pid:1 (Op.Tas_aux 0)) );
    ( "shared-owned-by-third-party",
      fun mem ->
        ignore (Memory.apply mem ~pid:2 (Op.Tas_name 0));
        ignore (Memory.apply mem ~pid:2 (Op.Tas_aux 0));
        ignore (Memory.apply mem ~pid:2 (Op.Write_word { idx = 1; value = 9 })) );
    ("all-claimed-by-third-party", claim_all ~pid:2);
  ]

let run_order ~prepare ~first:(pid_a, op_a) ~second:(pid_b, op_b) =
  let mem = fresh_memory () in
  prepare mem;
  let ra = Memory.apply mem ~pid:pid_a op_a in
  let rb = Memory.apply mem ~pid:pid_b op_b in
  (ra, rb, fingerprint mem)

let audit_pairs ?(table = Footprint.of_op) () =
  let failures = ref [] in
  let checked = ref 0 in
  let fail check detail = failures := { f_check = check; f_detail = detail } :: !failures in
  let ops_a = Op.representatives ~idx:0 ~value:17 in
  let ops_b = Op.representatives ~idx:0 ~value:29 @ Op.representatives ~idx:1 ~value:29 in
  (* The representatives provably cover every constructor. *)
  let tags = List.sort_uniq compare (List.map Op.tag ops_a) in
  if List.length tags <> Op.n_tags then
    fail "representative-coverage"
      (Printf.sprintf "representatives cover %d of %d constructors" (List.length tags) Op.n_tags);
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          (* The relation must be symmetric... *)
          if Footprint.independent_under ~table a b <> Footprint.independent_under ~table b a
          then
            fail "symmetry"
              (Printf.sprintf "independence of %s / %s is asymmetric" (string_of_op a)
                 (string_of_op b));
          if Footprint.independent_under ~table a b then
            if is_device a || is_device b then
              (* ...device answers depend on the clock phase, so no table
                 may ever commute them past anything. *)
              fail "device-independence"
                (Printf.sprintf
                   "%s / %s: τ-register operations are position-sensitive and must be declared \
                    Opaque"
                   (string_of_op a) (string_of_op b))
            else
              List.iter
                (fun (state, prepare) ->
                  incr checked;
                  let ra1, rb1, fp1 = run_order ~prepare ~first:(0, a) ~second:(1, b) in
                  let rb2, ra2, fp2 = run_order ~prepare ~first:(1, b) ~second:(0, a) in
                  if ra1 <> ra2 || rb1 <> rb2 || fp1 <> fp2 then
                    fail "commutation"
                      (Printf.sprintf
                         "%s (pid 0) / %s (pid 1) claimed independent but orders differ from \
                          state %s: responses %s,%s vs %s,%s; state %S vs %S"
                         (string_of_op a) (string_of_op b) state (string_of_response ra1)
                         (string_of_response rb1) (string_of_response ra2) (string_of_response rb2)
                         fp1 fp2))
                prestates)
        ops_b)
    ops_a;
  { a_checked = !checked; a_failures = List.rev !failures }

(* --- dependence-relation audit (the DPOR race relation) --- *)

(* The model checker's race detection takes an opaque [dependent]
   predicate (in practice [Renaming_mcheck.Races.dependent], injected
   here by bin/ and the tests — lib/analysis sits below lib/mcheck in
   the build).  DPOR only stays sound if every pair that predicate
   declares independent really commutes, so the audit holds it against
   both the static table and the executable oracle: symmetry, exact
   agreement with [Footprint.independent_under], and both-orders
   execution from every representative pre-state for each pair it would
   let the checker reorder. *)
let audit_dependence ?(table = Footprint.of_op) ~dependent () =
  let failures = ref [] in
  let checked = ref 0 in
  let fail check detail = failures := { f_check = check; f_detail = detail } :: !failures in
  let ops_a = Op.representatives ~idx:0 ~value:17 in
  let ops_b = Op.representatives ~idx:0 ~value:29 @ Op.representatives ~idx:1 ~value:29 in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          if dependent a b <> dependent b a then
            fail "dependence-symmetry"
              (Printf.sprintf "dependence of %s / %s is asymmetric" (string_of_op a)
                 (string_of_op b));
          if dependent a b = Footprint.independent_under ~table a b then
            fail "table-agreement"
              (Printf.sprintf
                 "race relation calls %s / %s %s but the audited footprint table says otherwise"
                 (string_of_op a) (string_of_op b)
                 (if dependent a b then "dependent" else "independent"));
          if not (dependent a b) then
            if is_device a || is_device b then
              fail "device-dependence"
                (Printf.sprintf
                   "%s / %s: τ-register operations are position-sensitive; the race relation \
                    must treat them as dependent"
                   (string_of_op a) (string_of_op b))
            else
              List.iter
                (fun (state, prepare) ->
                  incr checked;
                  let ra1, rb1, fp1 = run_order ~prepare ~first:(0, a) ~second:(1, b) in
                  let rb2, ra2, fp2 = run_order ~prepare ~first:(1, b) ~second:(0, a) in
                  if ra1 <> ra2 || rb1 <> rb2 || fp1 <> fp2 then
                    fail "race-soundness"
                      (Printf.sprintf
                         "%s (pid 0) / %s (pid 1): the race relation would let DPOR reorder \
                          these, but orders differ from state %s: responses %s,%s vs %s,%s; \
                          state %S vs %S"
                         (string_of_op a) (string_of_op b) state (string_of_response ra1)
                         (string_of_response rb1) (string_of_response ra2)
                         (string_of_response rb2) fp1 fp2))
                prestates)
        ops_b)
    ops_a;
  { a_checked = !checked; a_failures = List.rev !failures }

(* --- dynamic coverage audit --- *)

let coverage_logger ~table ~label ~count ~failures () ~pid op accesses =
  ignore pid;
  incr count;
  let claim = table op in
  List.iter
    (fun access ->
      if not (Footprint.covers claim access) then
        failures :=
          {
            f_check = "coverage";
            f_detail =
              Format.asprintf
                "%s: executed %a performed %a, not covered by its static footprint %a" label Op.pp
                op Memory.pp_access access Footprint.pp claim;
          }
          :: !failures)
    accesses

let audit_coverage ?(table = Footprint.of_op) ?(max_ticks = 2_000_000) instances =
  let failures = ref [] in
  let count = ref 0 in
  List.iter
    (fun (label, build) ->
      let inst = build () in
      Memory.set_access_logger inst.Executor.memory
        (Some (coverage_logger ~table ~label ~count ~failures ()));
      (* Round-robin keeps every process in contention, so TAS losses,
         failed releases and ownership misses all get logged, not just
         the happy paths a solo run would exercise. *)
      match Executor.run ~max_ticks ~adversary:(Adversary.round_robin ()) inst with
      | _report -> ()
      | exception e ->
        failures :=
          {
            f_check = "coverage-run";
            f_detail = Printf.sprintf "%s: instrumented run raised %s" label (Printexc.to_string e);
          }
          :: !failures)
    instances;
  (* The roster only exercises the operations the algorithms use; sweep
     the representatives over a scratch memory so rare operations
     (releases, word writes, device traffic) are dynamically checked
     too. *)
  List.iter
    (fun (_state, prepare) ->
      let mem = fresh_memory () in
      prepare mem;
      Memory.set_access_logger mem
        (Some (coverage_logger ~table ~label:"representatives" ~count ~failures ()));
      List.iter
        (fun pid ->
          List.iter
            (fun op -> ignore (Memory.apply mem ~pid op))
            (Op.representatives ~idx:(pid mod 2) ~value:(40 + pid)))
        [ 0; 1; 2 ])
    prestates;
  { a_checked = !count; a_failures = List.rev !failures }

(* A deliberately broken table for tests and the `--inject` self-check:
   TAS on the namespace misdeclared as a pure read, which makes the
   table claim e.g. tas-name[i] / read-name[i] commute — they do not. *)
let broken_table (op : Op.t) : Footprint.t =
  match (op, Footprint.of_op op) with
  | Op.Tas_name _, Footprint.Cell c -> Footprint.Cell { c with Footprint.writes = false }
  | _, fp -> fp
