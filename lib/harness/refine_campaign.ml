module Campaign = Renaming_faults.Campaign
module Shrink = Renaming_faults.Shrink
module Mcheck = Renaming_mcheck.Mcheck
module Fuzz = Renaming_fuzz.Fuzz
module Check = Renaming_refine.Check
module Lease_adapter = Renaming_refine.Lease_adapter
module Net_churn = Renaming_service.Net_churn
module Router = Renaming_service.Router
module Transport = Renaming_service.Transport
module Obs = Renaming_obs.Obs
module Metrics = Renaming_obs.Metrics

type backend_report = {
  b_name : string;
  b_backend : string;  (* executor | service | router | net *)
  b_runs : int;
  b_events : int;
  b_steps : int;
  b_stutters : int;
  b_violations : int;
  b_first : string option;
}

type mutant_report = {
  m_name : string;
  m_found : bool;
  m_kind : string option;
  m_shrunk : bool;
  m_choices : int;  (* length of the 1-minimal prefix *)
  m_roundtrip : bool;  (* repro survives to_string/of_string *)
  m_repro : Shrink.repro option;
}

type summary = { smoke : bool; backends : backend_report list; mutant : mutant_report }

let backend_ok b = b.b_violations = 0

let mutant_ok m = m.m_found && m.m_shrunk && m.m_roundtrip

let ok s = List.for_all backend_ok s.backends && mutant_ok s.mutant

(* --- checker bookkeeping: the lease-side stages retain every checker
   they create so its per-trace counts can be totalled after the stage
   returns --- *)

type tally = { mutable checks : Check.t list }

let tally () = { checks = [] }

let remember tally check = tally.checks <- check :: tally.checks

let report ~name ~backend ~runs tally =
  let sum f = List.fold_left (fun acc c -> acc + f c) 0 tally.checks in
  let first =
    List.fold_left
      (fun acc c ->
        match acc with
        | Some _ -> acc
        | None ->
            Option.map (fun v -> Format.asprintf "%a" Check.pp_violation v) (Check.first_violation c))
      None (List.rev tally.checks)
  in
  {
    b_name = name;
    b_backend = backend;
    b_runs = runs;
    b_events = sum Check.events;
    b_steps = sum Check.steps;
    b_stutters = sum Check.stutters;
    b_violations = sum Check.violations;
    b_first = first;
  }

(* An executor stage: [run] drives a campaign whose every run's monitor
   feeds the spec and bumps the shared refine/* counters on the given
   registry (the caller's, else a fresh one); the counters' growth
   totals the stage.  Every spec event is a step, a stutter or a
   rejection.  A rejection ends its run, so the first one comes from
   the violation messages [run] returns (the monitor renders it as a
   "refinement: <violation>" line). *)
let exec_stage ?obs ~name run =
  let obs = match obs with Some o -> o | None -> Obs.create () in
  let count c = Option.value ~default:0 (Metrics.find_counter (Obs.metrics obs) c) in
  let counts () = (count "refine/events", count "refine/stutters", count "refine/violations") in
  let e0, s0, v0 = counts () in
  let runs, messages = run obs in
  let e1, s1, v1 = counts () in
  let prefix = "refinement: " in
  let first =
    List.find_map
      (fun m ->
        let line = List.hd (String.split_on_char '\n' m) in
        if String.starts_with ~prefix line then
          Some (String.sub line (String.length prefix) (String.length line - String.length prefix))
        else None)
      messages
  in
  {
    b_name = name;
    b_backend = "executor";
    b_runs = runs;
    b_events = e1 - e0;
    b_steps = e1 - e0 - (s1 - s0) - (v1 - v0);
    b_stutters = s1 - s0;
    b_violations = v1 - v0;
    b_first = first;
  }

(* --- executor backend, chaos leg: the tier-1 cross-product (trimmed to
   one seed and two algorithms in smoke mode), every run monitored --- *)

let chaos_stage ?obs ~smoke () =
  let spec = Chaos.tier1_spec () in
  let spec =
    if smoke then
      {
        spec with
        Campaign.algorithms = (match spec.Campaign.algorithms with a :: b :: _ -> [ a; b ] | l -> l);
        adversaries = (match spec.Campaign.adversaries with a :: b :: _ -> [ a; b ] | l -> l);
        seeds = Array.sub spec.Campaign.seeds 0 1;
      }
    else spec
  in
  exec_stage ?obs ~name:"executor-chaos" (fun obs ->
      let summary = Campaign.run ~obs spec in
      ( summary.Campaign.total_runs,
        List.concat_map (fun c -> c.Campaign.c_messages) summary.Campaign.cells ))

(* --- executor backend, mcheck leg: systematic exploration of the
   announce model (crashes included — the spec's crash rule is load
   bearing there) plus a handoff protocol and a paper algorithm --- *)

let mcheck_stage ?obs ~smoke () =
  let keep =
    if smoke then [ "refine-grant-n2" ]
    else [ "refine-grant-n2"; "lease-handoff-n3"; "net-dedup-n3"; "uniform-probing-n3"; "linear-scan-n3" ]
  in
  let entries =
    List.filter (fun e -> List.mem e.Mcheck_roster.e_name keep) (Mcheck_roster.roster ())
  in
  exec_stage ?obs ~name:"executor-mcheck" (fun obs ->
      let stats =
        List.map
          (fun e -> Mcheck.check ~bounds:e.Mcheck_roster.e_bounds ~obs (Mcheck_roster.target e))
          entries
      in
      ( List.fold_left (fun acc s -> acc + s.Mcheck.s_schedules) 0 stats,
        List.concat_map (fun s -> List.map (fun c -> c.Mcheck.v_message) s.Mcheck.s_cases) stats ))

(* --- executor backend, fuzz leg: the clean roster under PCT + mutation
   schedules, every run monitored --- *)

let fuzz_stage ?obs ~smoke () =
  let targets =
    if smoke then
      List.filter
        (fun tg -> List.mem tg.Fuzz.fz_name [ "refine-grant-n2"; "lease-handoff-n4" ])
        (Fuzz_roster.clean ())
    else Fuzz_roster.clean ()
  in
  exec_stage ?obs ~name:"executor-fuzz" (fun obs ->
      let summary =
        Fuzz.run ~obs ~seed:0x5EEDL ~iterations:(if smoke then 40 else 200) targets
      in
      let results = summary.Fuzz.s_results in
      ( List.fold_left (fun acc r -> acc + r.Fuzz.r_iterations + 1) 0 results,
        List.concat_map (fun r -> List.map (fun v -> v.Fuzz.v_message) r.Fuzz.r_violations) results
      ))

(* Net_churn runs observed through the router tap, one fresh spec per
   seed. *)
let churn_stage ?obs ~name ~backend (cfg : Net_churn.config) seeds =
  let t = tally () in
  List.iter (fun seed -> remember t (snd (Lease_adapter.run ?obs cfg ~seed))) seeds;
  report ~name ~backend ~runs:(List.length seeds) t

(* --- lease-service backend: closed-loop churn with crash-restart and
   stale ghosts against a single Service (a one-shard router over a
   perfect transport) --- *)

let service_stage ?obs ~smoke () =
  let cfg =
    Net_churn.make_config ~faults:Transport.perfect
      ~clients:(if smoke then 24 else 64)
      ~sessions_target:(if smoke then 300 else 2_000)
      ~crash_rate:0.2 ~stale_wakeup:0.25 ~max_attempts:6
      ~router:
        (Router.make_config ~shards:1 ~slices:1 ~slice_capacity:32 ~queue_limit:64
           ~high_water:0.85 ~auto_rebalance:false ())
      ()
  in
  churn_stage ?obs ~name:"service-churn" ~backend:"service" cfg
    (if smoke then [ 0x5EED_11L ] else [ 0x5EED_11L; 0x5EED_12L ])

(* --- sharded-router backend: slice handoffs (some crashed mid-transit),
   shard stalls and bursts; absorbs arrive as [Tap_absorb] and refine to
   reclaims of every name the spec still believes held in the slice --- *)

let router_stage ?obs ~smoke () =
  let cfg =
    Net_churn.make_config ~faults:Transport.perfect ~router:(Router.make_config ())
      ~clients:(if smoke then 24 else 64)
      ~sessions_target:(if smoke then 300 else 2_000)
      ~handoff:{ Net_churn.h_every = 6.0; h_crash_src = 0.1; h_crash_dst = 0.1 }
      ~stall:{ Net_churn.st_every = 11.0; st_duration = 9.0 }
      ()
  in
  churn_stage ?obs ~name:"router-churn" ~backend:"router" cfg
    (if smoke then [ 0x5EED_21L ] else [ 0x5EED_21L; 0x5EED_22L ])

(* --- net backend: the same router observed through an unreliable
   transport — retransmits, dedup replays and fenced ghosts never reach
   the audit tap, so they refine to stutters by construction --- *)

let net_stage ?obs ~smoke () =
  let cfg =
    Net_churn.make_config
      ~clients:(if smoke then 24 else 64)
      ~sessions_target:(if smoke then 300 else 1_500)
      ~partition:{ Net_churn.p_every = 40.0; p_duration = 4.0; p_both = 0.5 }
      ~shard_crash_every:60.0 ~shard_restart:10.0 ()
  in
  churn_stage ?obs ~name:"net-churn" ~backend:"net" cfg
    (if smoke then [ 0x5EED_31L ] else [ 0x5EED_31L; 0x5EED_32L ])

(* --- seeded-mutant self-test: the post-reclaim double grant must be
   found by the fuzzer, shrink to a 1-minimal [.repro], and survive the
   artifact round-trip --- *)

let mutant_stage ?obs () =
  let name = "mutant-refine-regrant" in
  let summary =
    Fuzz.run ?obs ~seed:1L ~iterations:200
      (List.filter (fun tg -> tg.Fuzz.fz_name = name) (Fuzz_roster.mutants ()))
  in
  let violation =
    List.concat_map (fun r -> r.Fuzz.r_violations) summary.Fuzz.s_results
    |> List.find_opt (fun v ->
           String.length v.Fuzz.v_kind >= 7 && String.sub v.Fuzz.v_kind 0 7 = "refine:")
  in
  match violation with
  | None -> { m_name = name; m_found = false; m_kind = None; m_shrunk = false; m_choices = 0; m_roundtrip = false; m_repro = None }
  | Some v ->
      let repro = v.Fuzz.v_repro in
      let roundtrip =
        match repro with
        | None -> false
        | Some r -> (
            match Shrink.repro_of_string (Shrink.repro_to_string r) with
            | Ok r' ->
                r'.Shrink.rp_algorithm = r.Shrink.rp_algorithm
                && r'.Shrink.rp_kind = r.Shrink.rp_kind
                && r'.Shrink.rp_choices = r.Shrink.rp_choices
            | Error _ -> false)
      in
      {
        m_name = name;
        m_found = true;
        m_kind = Some v.Fuzz.v_kind;
        m_shrunk = repro <> None;
        m_choices = (match repro with Some r -> List.length r.Shrink.rp_choices | None -> 0);
        m_roundtrip = roundtrip;
        m_repro = repro;
      }

let run ?obs ?(progress = fun (_ : string) -> ()) ?(smoke = false) () =
  progress "executor-chaos";
  let chaos = chaos_stage ?obs ~smoke () in
  progress "executor-mcheck";
  let mcheck = mcheck_stage ?obs ~smoke () in
  progress "executor-fuzz";
  let fuzz = fuzz_stage ?obs ~smoke () in
  progress "service-churn";
  let service = service_stage ?obs ~smoke () in
  progress "router-churn";
  let router = router_stage ?obs ~smoke () in
  progress "net-churn";
  let net = net_stage ?obs ~smoke () in
  progress "mutant-self-test";
  let mutant = mutant_stage ?obs () in
  { smoke; backends = [ chaos; mcheck; fuzz; service; router; net ]; mutant }

(* --- JSON (hand-rolled; the toolchain has no JSON library and the
   driver forbids adding one) --- *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let backend_to_json b =
  Printf.sprintf
    "{\"name\":\"%s\",\"backend\":\"%s\",\"ok\":%b,\"runs\":%d,\"events\":%d,\"steps\":%d,\"stutters\":%d,\"violations\":%d,\"first_violation\":%s}"
    (json_escape b.b_name) (json_escape b.b_backend) (backend_ok b) b.b_runs b.b_events b.b_steps
    b.b_stutters b.b_violations
    (match b.b_first with None -> "null" | Some s -> "\"" ^ json_escape s ^ "\"")

let mutant_to_json m =
  Printf.sprintf
    "{\"name\":\"%s\",\"ok\":%b,\"found\":%b,\"kind\":%s,\"shrunk\":%b,\"minimal_choices\":%d,\"roundtrip\":%b}"
    (json_escape m.m_name) (mutant_ok m) m.m_found
    (match m.m_kind with None -> "null" | Some k -> "\"" ^ json_escape k ^ "\"")
    m.m_shrunk m.m_choices m.m_roundtrip

let to_json s =
  Printf.sprintf
    "{\"schema\":\"renaming.refine/1\",\"smoke\":%b,\"ok\":%b,\"backends\":[\n%s\n],\"mutant\":%s}"
    s.smoke (ok s)
    (String.concat ",\n" (List.map backend_to_json s.backends))
    (mutant_to_json s.mutant)

let pp fmt s =
  Format.fprintf fmt "@[<v>refinement harness (%s):@ " (if s.smoke then "smoke" else "full");
  Format.fprintf fmt "%-16s %-8s %6s %9s %9s %9s %5s  %s@ " "stage" "backend" "runs" "events"
    "steps" "stutters" "viol" "status";
  List.iter
    (fun b ->
      Format.fprintf fmt "%-16s %-8s %6d %9d %9d %9d %5d  %s@ " b.b_name b.b_backend b.b_runs
        b.b_events b.b_steps b.b_stutters b.b_violations
        (match b.b_first with
        | None -> "clean"
        | Some v -> Printf.sprintf "VIOLATION: %s" v))
    s.backends;
  Format.fprintf fmt "mutant %s: %s@ " s.mutant.m_name
    (if mutant_ok s.mutant then
       Printf.sprintf "caught (%s), shrunk to %d choices, artifact round-trips"
         (Option.value ~default:"?" s.mutant.m_kind)
         s.mutant.m_choices
     else if not s.mutant.m_found then "MISSED (no refine violation found)"
     else if not s.mutant.m_shrunk then "found but NOT SHRUNK"
     else "found but artifact does NOT round-trip");
  Format.fprintf fmt "@]"
