(* Command-line driver: list and run the paper's experiments, or run a
   single renaming instance and print its report. *)

(* Explicit aliases rather than `open Cmdliner`: the open shadows the
   stdlib Arg module (warning 44, fatal under the hardened profile). *)
module Arg = Cmdliner.Arg
module Cmd = Cmdliner.Cmd
module Term = Cmdliner.Term
module Registry = Renaming_harness.Registry
module Runcfg = Renaming_harness.Runcfg
module Table = Renaming_harness.Table
module Params = Renaming_core.Params
module Report = Renaming_sched.Report
module Adversary = Renaming_sched.Adversary
module Obs = Renaming_obs.Obs
module Export = Renaming_obs.Export
module Json = Renaming_obs.Json
module Telemetry = Renaming_sched.Telemetry
module Executor = Renaming_sched.Executor
module Target = Renaming_faults.Target
module Shrink = Renaming_faults.Shrink

let scale_arg =
  let scale = Arg.enum [ ("quick", Runcfg.Quick); ("full", Runcfg.Full) ] in
  Arg.(value & opt scale Runcfg.Quick & info [ "scale" ] ~docv:"SCALE"
         ~doc:"Experiment scale: $(b,quick) or $(b,full).")

let list_cmd =
  let run () =
    List.iter
      (fun e -> Printf.printf "%-4s %s\n     claim: %s\n" e.Registry.id e.Registry.title e.Registry.claim)
      Registry.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List every reproducible experiment (tables and figures).")
    Term.(const run $ const ())

let rec mkdir_p dir =
  if dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let write_file path contents =
  mkdir_p (Filename.dirname path);
  let oc = open_out path in
  output_string oc contents;
  close_out oc

let json_arg =
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE"
         ~doc:"Also write every table run to $(docv) as JSON (schema renaming.tables/1).")

let tables_json scale runs =
  Json.Obj
    [
      ("schema", Json.String "renaming.tables/1");
      ("scale", Json.String (Runcfg.scale_name scale));
      ( "experiments",
        Json.List
          (List.map
             (fun (e, table) ->
               Json.Obj
                 [
                   ("id", Json.String e.Registry.id);
                   ("claim", Json.String e.Registry.claim);
                   ("table", Table.to_json table);
                 ])
             runs) );
    ]

let run_cmd =
  let ids = Arg.(value & pos_all string [] & info [] ~docv:"ID") in
  let run scale json ids =
    (* Resolve every id before running anything: a typo should not cost
       the experiments ahead of it. *)
    let entries =
      if ids = [] then Registry.all
      else
        List.map
          (fun id ->
            match Registry.find id with
            | Some e -> e
            | None ->
              Printf.eprintf "unknown experiment id %S (try `renaming list`)\n" id;
              exit 1)
          ids
    in
    let runs =
      List.map
        (fun e ->
          let table = e.Registry.run scale in
          Printf.printf "[%s] %s\nclaim: %s\n\n%s\n%!" e.Registry.id e.Registry.title
            e.Registry.claim (Table.render table);
          (e, table))
        entries
    in
    Option.iter
      (fun out ->
        (* One line, not [Json.to_document]'s one experiment per line:
           results/tables.json is pinned in this layout. *)
        write_file out (Json.to_string (tables_json scale runs) ^ "\n");
        Printf.printf "(json written to %s)\n" out)
      json
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Run the experiments with the given ids (e.g. T1 F2), or every experiment in \
             registry order when no id is given.")
    Term.(const run $ scale_arg $ json_arg $ ids)

let adversary_of_name seed = function
  | "round-robin" -> Adversary.round_robin ()
  | "uniform" -> Adversary.uniform (Renaming_rng.Stream.fork_named (Renaming_rng.Stream.create seed) ~name:"adversary")
  | "lifo" -> Adversary.lifo
  | "adaptive" -> Adversary.adaptive_contention
  | "colluding" -> Adversary.colluding
  | other -> invalid_arg (Printf.sprintf "unknown adversary %S" other)

let demo_cmd =
  let algorithm =
    Arg.(value & opt string "tight" & info [ "algorithm"; "a" ] ~docv:"ALGO"
           ~doc:"One of: tight, tight-literal, loose-geometric, loose-clustered, cor7, cor9, adaptive, grid.")
  in
  let n = Arg.(value & opt int 1024 & info [ "n" ] ~doc:"Number of processes.") in
  let ell = Arg.(value & opt int 2 & info [ "l" ] ~doc:"The l parameter of the loose algorithms.") in
  let seed = Arg.(value & opt int64 42L & info [ "seed" ] ~doc:"Random seed.") in
  let adversary =
    Arg.(value & opt string "round-robin" & info [ "adversary" ] ~docv:"ADV"
           ~doc:"round-robin, uniform, lifo, adaptive or colluding.")
  in
  let run algorithm n ell seed adversary_name =
    let adversary = adversary_of_name seed adversary_name in
    let report =
      match algorithm with
      | "tight" ->
        let params = Params.make ~policy:Params.Mass_conserving ~n () in
        Renaming_core.Tight.run ~adversary ~params ~seed ()
      | "tight-literal" ->
        let params = Params.make ~policy:Params.Paper_literal ~n () in
        Renaming_core.Tight.run ~adversary ~params ~seed ()
      | "loose-geometric" ->
        Renaming_core.Loose_geometric.run ~adversary { Renaming_core.Loose_geometric.n; ell } ~seed
      | "loose-clustered" ->
        Renaming_core.Loose_clustered.run ~adversary { Renaming_core.Loose_clustered.n; ell } ~seed
      | "cor7" ->
        Renaming_core.Combined.run ~adversary
          { Renaming_core.Combined.n; variant = Renaming_core.Combined.Geometric { ell } }
          ~seed
      | "cor9" ->
        Renaming_core.Combined.run ~adversary
          { Renaming_core.Combined.n; variant = Renaming_core.Combined.Clustered { ell } }
          ~seed
      | "adaptive" ->
        Renaming_core.Adaptive.run ~adversary (Renaming_core.Adaptive.make_config ~k:n ()) ~seed
      | "grid" ->
        Renaming_splitter.Grid.run ~adversary (Renaming_splitter.Grid.make_config ~n ())
      | other ->
        Printf.eprintf "unknown algorithm %S\n" other;
        exit 1
    in
    Format.printf "%a@." Report.pp report
  in
  Cmd.v (Cmd.info "demo" ~doc:"Run one renaming instance and print its report.")
    Term.(const run $ algorithm $ n $ ell $ seed $ adversary)

(* The single place a real time source is allowed to exist: library code
   takes a Clock.t capability (the wall-clock lint rule keeps Unix time
   calls out of lib/). *)
let real_clock () = Renaming_clock.Clock.of_fn ~label:"real" (fun () -> Unix.gettimeofday ())

let multicore_cmd =
  let n = Arg.(value & opt int 65536 & info [ "n" ] ~doc:"Number of processes.") in
  let ell = Arg.(value & opt int 2 & info [ "l" ] ~doc:"The l parameter.") in
  let domains = Arg.(value & opt (some int) None & info [ "domains" ] ~doc:"Domain count.") in
  let seed = Arg.(value & opt int64 42L & info [ "seed" ] ~doc:"Random seed.") in
  let deadline =
    Arg.(value & opt (some Arg.float) None & info [ "deadline" ] ~docv:"SECONDS"
           ~doc:"Watchdog: fail with a per-domain progress diagnostic instead of hanging if the \
                 run has not finished after $(docv) wall-clock seconds.")
  in
  let run n ell domains seed deadline =
    let clock = Option.map (fun _ -> real_clock ()) deadline in
    match Renaming_concurrent.Mc_run.loose_geometric ?domains ?clock ?deadline ~n ~ell ~seed () with
    | result ->
      let valid = Renaming_shm.Assignment.is_valid result.Renaming_concurrent.Mc_run.assignment in
      Printf.printf
        "multicore loose-geometric: n=%d domains=%d wall=%.3fs max steps=%d unnamed=%d valid=%b\n" n
        result.Renaming_concurrent.Mc_run.domains
        result.Renaming_concurrent.Mc_run.wall_seconds
        (Renaming_concurrent.Mc_run.max_steps result)
        (Renaming_concurrent.Mc_run.unnamed_count result)
        valid;
      if not valid then exit 1
    | exception (Renaming_concurrent.Mc_run.Stalled _ as e) ->
      Printf.eprintf "%s\n" (Printexc.to_string e);
      exit 1
  in
  Cmd.v
    (Cmd.info "multicore"
       ~doc:"Run the Lemma 6 algorithm on real OCaml 5 domains; exit 1 on an invalid assignment \
             or a stall.")
    Term.(const run $ n $ ell $ domains $ seed $ deadline)

(* Persist shrunk counterexamples as replayable artifacts for
   `renaming shrink`. *)
let write_repros ~dir repros =
  List.iteri
    (fun i (r : Shrink.repro) ->
      let path =
        Filename.concat dir
          (Printf.sprintf "%s-%s-%d.repro" r.Shrink.rp_algorithm r.Shrink.rp_kind i)
      in
      write_file path (Shrink.repro_to_string r);
      Printf.printf "(repro written to %s)\n" path)
    repros

(* Shared --metrics option: campaigns opt into the telemetry registry
   and persist a snapshot next to their JSON summary. *)
let metrics_arg =
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE"
         ~doc:"Also write a telemetry metrics snapshot of the campaign to $(docv).")

let obs_of_metrics metrics = Option.map (fun _ -> Obs.create ()) metrics

let write_metrics ~label obs metrics =
  match (obs, metrics) with
  | Some obs, Some path ->
    write_file path (Json.to_document (Export.metrics_json ~label (Obs.metrics obs)));
    Printf.printf "(metrics written to %s)\n" path
  | _ -> ()

(* `chaos --service/--sharded/--net`: a lease-service chaos campaign
   (lib/harness/chaos_campaign.ml).  The command fails loudly unless
   every safety total is 0 AND the campaign exercised the machinery it
   exists to test, so a clean report cannot come from faults silently
   not firing. *)
let run_service_campaign campaign ~sessions ~seed_count ~out ~metrics =
  let module C = Renaming_harness.Chaos_campaign in
  let label = "chaos --" ^ campaign.C.name in
  (* The default is not committed: [make chaos-net] pins
     results/chaos-net.json with an explicit --out, and a hand run with
     a small --sessions must not overwrite it. *)
  let out = Option.value out ~default:("results/chaos-" ^ campaign.C.name ^ ".local.json") in
  let progress ~done_ ~total =
    Printf.eprintf "\r%s: run %d/%d%!" label done_ total;
    if done_ = total then prerr_newline ()
  in
  let obs = obs_of_metrics metrics in
  let sessions = Option.value sessions ~default:campaign.C.default_sessions in
  let result =
    C.run ~progress ?obs campaign ~sessions ~seeds:(Renaming_harness.Seeds.take seed_count)
  in
  Format.printf "%a@." (C.pp campaign) result;
  write_file out (Json.to_document (C.to_json campaign result));
  Printf.printf "(json written to %s)\n" out;
  write_metrics ~label:("chaos-" ^ campaign.C.name) obs metrics;
  match C.failures campaign result with
  | [] -> ()
  | failures ->
    List.iter (Printf.eprintf "%s: %s\n" label) failures;
    exit 1

let chaos_cmd =
  let module Campaign = Renaming_faults.Campaign in
  let module Chaos = Renaming_harness.Chaos in
  let n = Arg.(value & opt int 48 & info [ "n" ] ~doc:"Number of processes per run.") in
  let seeds = Arg.(value & opt int 3 & info [ "seeds" ] ~doc:"Number of deterministic seeds per cell.") in
  let max_ticks =
    Arg.(value & opt int 2_000_000 & info [ "max-ticks" ] ~doc:"Livelock guard per run.")
  in
  let out =
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE"
           ~doc:"Write the JSON summary to $(docv) (default: results/chaos.json, or \
                 results/chaos-<campaign>.local.json, which is not committed, with \
                 $(b,--service), $(b,--sharded) or $(b,--net)).")
  in
  let service =
    Arg.(value & flag & info [ "service" ]
           ~doc:"Run the lease-service churn campaign instead of the algorithm campaign.")
  in
  let sharded =
    Arg.(value & flag & info [ "sharded" ]
           ~doc:"Run the sharded-router partition chaos campaign: Zipf-skewed rebalancing, \
                 correlated shard crashes, crash-during-handoff and stall routing.")
  in
  let net =
    Arg.(value & flag & info [ "net" ]
           ~doc:"Run the unreliable-transport chaos campaign: lossy/duplicating/reordering \
                 messaging between clients, router and shards, at-most-once dedup, \
                 timeout/retry and heartbeat failure detection.")
  in
  let sessions =
    Arg.(value & opt (some int) None & info [ "sessions" ] ~docv:"N"
           ~doc:"With $(b,--service), $(b,--sharded) or $(b,--net): client sessions per \
                 campaign cell (defaults: 150000, 60000 and 65000).")
  in
  let run n seed_count max_ticks out metrics service sharded net sessions =
    if seed_count < 1 then begin
      Printf.eprintf "chaos: --seeds must be >= 1\n";
      exit 2
    end;
    if (if service then 1 else 0) + (if sharded then 1 else 0) + (if net then 1 else 0) > 1
    then begin
      Printf.eprintf "chaos: --service, --sharded and --net are mutually exclusive\n";
      exit 2
    end;
    (match sessions with
    | Some s when s < 1 ->
      Printf.eprintf "chaos: --sessions must be >= 1\n";
      exit 2
    | _ -> ());
    let module C = Renaming_harness.Chaos_campaign in
    if net then run_service_campaign C.net ~sessions ~seed_count ~out ~metrics
    else if sharded then run_service_campaign C.sharded ~sessions ~seed_count ~out ~metrics
    else if service then run_service_campaign C.service ~sessions ~seed_count ~out ~metrics
    else begin
      if n < 8 then begin
        Printf.eprintf "chaos: -n must be >= 8 (the tight schedule's minimum)\n";
        exit 2
      end;
      let spec = Chaos.spec ~n ~seed_count ~max_ticks () in
      let progress ~done_ ~total =
        Printf.eprintf "\rchaos: cell %d/%d%!" done_ total;
        if done_ = total then prerr_newline ()
      in
      let obs = obs_of_metrics metrics in
      let out = Option.value out ~default:"results/chaos.json" in
      let summary = Campaign.run ~progress ?obs spec in
      Format.printf "%a@." Campaign.pp summary;
      write_file out (Json.to_document (Campaign.to_json summary));
      Printf.printf "(json written to %s)\n" out;
      write_metrics ~label:"chaos" obs metrics;
      write_repros ~dir:(Filename.concat (Filename.dirname out) "repros")
        (List.concat_map (fun c -> c.Campaign.c_repros) summary.Campaign.cells);
      if summary.Campaign.total_violations > 0 then begin
        Printf.eprintf "chaos: %d safety violation(s) detected\n" summary.Campaign.total_violations;
        exit 1
      end
    end
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Run the deterministic chaos campaign: every algorithm under crash, crash-recovery and \
          transient-fault injection with the online safety monitor attached; with $(b,--service), \
          the lease-service churn campaign (crash-restart clients, reclamation, admission control); \
          with $(b,--sharded), the partition chaos campaign over the sharded router (fault-injected \
          slice handoff, degraded-mode routing, cross-shard uniqueness audit); with $(b,--net), \
          the unreliable-transport campaign (lossy messaging, at-most-once dedup, timeout/retry, \
          heartbeat failure detection).")
    Term.(const run $ n $ seeds $ max_ticks $ out $ metrics_arg $ service $ sharded $ net $ sessions)

let mcheck_cmd =
  let module Mcheck = Renaming_mcheck.Mcheck in
  let module Roster = Renaming_harness.Mcheck_roster in
  let tier1 =
    Arg.(value & flag & info [ "tier1" ]
           ~doc:"Check only the fast tier-1 subset of the roster.")
  in
  let out =
    Arg.(value & opt string "results/mcheck.json" & info [ "out" ] ~docv:"FILE"
           ~doc:"Write the JSON summary to $(docv).")
  in
  let only =
    Arg.(value & opt_all string [] & info [ "only" ] ~docv:"NAME"
           ~doc:"Check only the named roster entries (repeatable).")
  in
  let budget_seconds =
    Arg.(value & opt (some Arg.float) None & info [ "budget-seconds" ] ~docv:"SECONDS"
           ~doc:"Wall-clock budget assertion: exit nonzero if the whole run (exploration plus \
                 shrinking) takes longer than $(docv).  Used by the mcheck-dpor-tier1 CI step.")
  in
  let run tier1 out only budget_seconds metrics =
    let entries = if tier1 then Roster.tier1 () else Roster.roster () in
    let entries =
      if only = [] then entries
      else List.filter (fun e -> List.mem e.Roster.e_target.Target.name only) entries
    in
    if entries = [] then begin
      Printf.eprintf "mcheck: no roster entries selected\n";
      exit 2
    end;
    let t0 = Unix.gettimeofday () in
    let obs = obs_of_metrics metrics in
    let all =
      List.map
        (fun e ->
          let stats = Roster.run_entry ?obs e in
          Format.printf "%a@." Mcheck.pp_stats stats;
          write_repros ~dir:(Filename.concat (Filename.dirname out) "repros")
            (List.filter_map
               (fun c -> Option.map Shrink.to_repro c.Mcheck.v_shrunk)
               stats.Mcheck.s_cases);
          stats)
        entries
    in
    write_file out (Json.to_document (Mcheck.to_json all));
    Printf.printf "(json written to %s)\n" out;
    write_metrics ~label:"mcheck" obs metrics;
    let violations =
      List.fold_left (fun acc s -> acc + s.Mcheck.s_violations) 0 all
    in
    let elapsed = Unix.gettimeofday () -. t0 in
    if violations > 0 then begin
      Printf.eprintf "mcheck: %d violating schedule(s) found\n" violations;
      exit 1
    end;
    match budget_seconds with
    | Some budget when elapsed > budget ->
      Printf.eprintf "mcheck: wall-clock budget exceeded: %.2fs > %.2fs\n" elapsed budget;
      exit 1
    | Some budget -> Printf.printf "(%.2fs elapsed, within the %.2fs budget)\n" elapsed budget
    | None -> ()
  in
  Cmd.v
    (Cmd.info "mcheck"
       ~doc:
         "Exhaustively model-check small instances: every schedule (plus bounded crash, recovery \
          and transient-fault injections) under the online safety monitor, explored with \
          source-DPOR over the audited independence relation (wakeup trees, preemption \
          bounding).")
    Term.(const run $ tier1 $ out $ only $ budget_seconds $ metrics_arg)

let analyze_cmd =
  let module Analyze = Renaming_analysis.Analyze in
  let module Commute = Renaming_analysis.Commute in
  let module Unused_export = Renaming_analysis.Unused_export in
  let module Roster = Renaming_harness.Mcheck_roster in
  let lint_root =
    Arg.(value & opt string "lib" & info [ "lint-root" ] ~docv:"DIR"
           ~doc:"Directory tree the source lint walks.")
  in
  let skip_lint = Arg.(value & flag & info [ "skip-lint" ] ~doc:"Run only the footprint audits.") in
  let out =
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE"
           ~doc:"Write the JSON report to $(docv) (default: results/analyze.json, or \
                 results/analyze-inject.local.json, which is not committed, with \
                 $(b,--inject)).")
  in
  let inject =
    let kind =
      Arg.enum [ ("broken-footprint", `Broken_footprint); ("unused-export", `Unused_export) ]
    in
    Arg.(value & opt (some kind) None & info [ "inject" ] ~docv:"BUG"
           ~doc:"Self-check: audit a deliberately broken input and verify the layer rejects it \
                 — the command must exit nonzero.  $(b,broken-footprint): tas-name misdeclared \
                 as a pure read in the footprint table; $(b,unused-export): the unused-export \
                 rule run as if bin/ did not exist, so the exports only the CLI uses are unused.")
  in
  let run lint_root skip_lint out inject =
    (* A self-check's report fails on purpose, so by default it must not
       overwrite the committed results/analyze.json. *)
    let out =
      Option.value out
        ~default:
          (if inject = None then "results/analyze.json" else "results/analyze-inject.local.json")
    in
    let table =
      match inject with
      | Some `Broken_footprint -> Some Commute.broken_table
      | Some `Unused_export | None -> None
    in
    let exports =
      let cfg = Unused_export.default in
      if skip_lint then None
      else if inject = Some `Unused_export then
        Some { cfg with Unused_export.users = List.filter (( <> ) "bin") cfg.Unused_export.users }
      else Some cfg
    in
    let roster =
      List.map
        (fun e ->
          let t = e.Roster.e_target in
          (t.Target.name, fun () -> t.Target.build ~seed:e.Roster.e_seed))
        (Roster.roster ())
    in
    let result =
      match
        Analyze.run ?table ~dependent:Renaming_mcheck.Races.dependent
          ~lint_root:(if skip_lint then None else Some lint_root)
          ?exports ~roster ()
      with
      | result -> result
      | exception Sys_error message ->
        (* A lint root or a scanned directory that is not there. *)
        Printf.eprintf "analyze: %s\n" message;
        exit 1
    in
    Format.printf "%a@." Analyze.pp result;
    write_file out (Json.to_document (Analyze.to_json result));
    Printf.printf "(json written to %s)\n" out;
    if not (Analyze.ok result) then begin
      Printf.eprintf "analyze: static analysis failed\n";
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Run the static-analysis layer: the commutation-audited independence oracle (pairwise \
          execution of every representative operation pair in both orders, dynamic access-set \
          coverage of the model-checking roster, and a soundness audit of the DPOR race \
          relation against the executable oracle) and the source-level concurrency lint over \
          the library tree.")
    Term.(const run $ lint_root $ skip_lint $ out $ inject)

let shrink_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE"
                    ~doc:"A .repro artifact written by the chaos campaign, mcheck or fuzz.") in
  let max_ticks =
    Arg.(value & opt (some int) None & info [ "max-ticks" ]
           ~doc:"Override the artifact's livelock guard (a kind other than the artifact's header \
                 is then reported, not an error: this is how a livelock repro is crafted).")
  in
  let run file max_ticks =
    let contents =
      let ic = open_in file in
      let len = in_channel_length ic in
      let s = really_input_string ic len in
      close_in ic;
      s
    in
    match Shrink.repro_of_string contents with
    | Error e ->
      Printf.eprintf "shrink: cannot parse %s: %s\n" file e;
      exit 2
    | Ok repro -> (
      let name = repro.Shrink.rp_algorithm and n = repro.Shrink.rp_n in
      match Renaming_harness.Replay.find ~name ~n with
      | None ->
        Printf.eprintf "shrink: unknown algorithm %S (n=%d)\n" name n;
        exit 2
      | Some target -> (
        let input =
          {
            Shrink.target;
            seed = repro.Shrink.rp_seed;
            choices = repro.Shrink.rp_choices;
            max_ticks = Option.value max_ticks ~default:repro.Shrink.rp_max_ticks;
            tau_cadence = repro.Shrink.rp_tau_cadence;
          }
        in
        match Shrink.shrink input with
        | None ->
          Printf.eprintf
            "shrink: the artifact's trace does not reproduce a failure (%d choices replayed \
             cleanly)\n"
            (List.length repro.Shrink.rp_choices);
          exit 2
        | Some r ->
          Printf.printf "%s: %s\n" name r.Shrink.r_failure.Shrink.f_kind;
          Printf.printf "original: %d choices, minimised: %d choices (%d replays)\n"
            (List.length input.Shrink.choices)
            (List.length r.Shrink.r_choices)
            r.Shrink.r_replays;
          List.iter
            (fun c -> print_endline ("  " ^ Renaming_sched.Directed.choice_to_string c))
            r.Shrink.r_choices;
          print_newline ();
          print_string r.Shrink.r_failure.Shrink.f_message;
          print_newline ();
          let min_path = file ^ ".min" in
          write_file min_path
            (Shrink.repro_to_string
               {
                 repro with
                 Shrink.rp_kind = r.Shrink.r_failure.Shrink.f_kind;
                 rp_choices = r.Shrink.r_choices;
                 (* Record the guard the failure was actually reproduced
                    under, so the .min replays standalone even when
                    --max-ticks overrode the artifact's header. *)
                 rp_max_ticks = input.Shrink.max_ticks;
               });
          Printf.printf "(minimised repro written to %s)\n" min_path;
          let got = r.Shrink.r_failure.Shrink.f_kind and want = repro.Shrink.rp_kind in
          if not (String.equal got want) then begin
            Printf.eprintf "shrink: %s replays to kind %S, but its header records %S\n" file got
              want;
            (* --max-ticks is how a livelock repro is crafted from any
               artifact, so an overridden guard may change the kind. *)
            if Option.is_none max_ticks then exit 1
          end))
  in
  Cmd.v
    (Cmd.info "shrink"
       ~doc:
         "Replay a .repro counterexample artifact and minimise it with delta debugging; exits \
          with status 2 if the artifact no longer fails, and with status 1 if it replays to a \
          failure kind other than its $(b,kind:) header (unless $(b,--max-ticks) is given).")
    Term.(const run $ file $ max_ticks)

let fuzz_cmd =
  let module Fuzz = Renaming_fuzz.Fuzz in
  let module Roster = Renaming_harness.Fuzz_roster in
  let seed = Arg.(value & opt int64 0x46555A5AL & info [ "seed" ] ~doc:"Campaign seed.") in
  let iterations =
    Arg.(value & opt int 400 & info [ "iterations" ]
           ~doc:"Fuzz-iteration budget per target (the baseline run is free).")
  in
  let depth =
    Arg.(value & opt int 3 & info [ "depth" ] ~doc:"Maximum PCT bug depth swept (>= 1).")
  in
  let max_seconds =
    Arg.(value & opt (some Arg.float) None & info [ "max-seconds" ] ~docv:"SECONDS"
           ~doc:"Wall-clock budget for the whole campaign; targets not reached are reported with \
                 0 iterations and the summary is marked stopped-early.  Omitting it keeps the \
                 campaign fully deterministic.")
  in
  let mutants_only =
    Arg.(value & flag & info [ "mutants-only" ]
           ~doc:"Fuzz only the seeded-mutant self-test roster (the CI smoke configuration).")
  in
  let only =
    Arg.(value & opt_all string [] & info [ "only" ] ~docv:"NAME"
           ~doc:"Fuzz only the named roster targets (repeatable).")
  in
  let out =
    Arg.(value & opt string "results/fuzz.json" & info [ "out" ] ~docv:"FILE"
           ~doc:"Write the JSON summary to $(docv).")
  in
  let run seed iterations depth max_seconds mutants_only only out metrics =
    if iterations < 1 || depth < 1 then begin
      Printf.eprintf "fuzz: --iterations and --depth must be >= 1\n";
      exit 2
    end;
    let obs = obs_of_metrics metrics in
    let targets = if mutants_only then Roster.mutants () else Roster.roster () in
    let targets =
      if only = [] then targets
      else List.filter (fun t -> List.mem t.Fuzz.fz_target.Target.name only) targets
    in
    if targets = [] then begin
      Printf.eprintf "fuzz: no roster targets selected\n";
      exit 2
    end;
    let clock = Option.map (fun _ -> real_clock ()) max_seconds in
    let progress ~target ~done_ ~total =
      Printf.eprintf "\rfuzz: %-28s %d/%d%!" target done_ total;
      if done_ = total then prerr_newline ()
    in
    let summary =
      Fuzz.run ?clock ?max_seconds ~depth ~progress ?obs ~seed ~iterations targets
    in
    Format.printf "%a@." Fuzz.pp summary;
    write_file out (Json.to_document (Fuzz.to_json summary));
    Printf.printf "(json written to %s)\n" out;
    write_metrics ~label:"fuzz" obs metrics;
    write_repros ~dir:(Filename.concat (Filename.dirname out) "repros") (Fuzz.repros summary);
    if not (Fuzz.ok summary) then begin
      Printf.eprintf "fuzz: campaign failed (missed mutant or violation on a clean target)\n";
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Run the coverage-guided schedule-fuzzing campaign: PCT adversaries (plain and \
          crash-spending) plus mutation of an interleaving-coverage corpus, under the online \
          safety monitor, with every violation ddmin-shrunk to a replayable .repro.  The roster \
          mixes clean algorithms (must stay clean) with seeded schedule-depth mutants (must be \
          found).")
    Term.(const run $ seed $ iterations $ depth $ max_seconds $ mutants_only $ only $ out
          $ metrics_arg)

(* --- telemetry subcommands --- *)

(* Build a fully instrumented instance of one of the paper algorithms:
   the obs capability is threaded into the programs, the shared
   instrumentation record is registered on the metrics registry, and
   the memory access logger is attached. *)
let obs_instance ~algorithm ~n ~ell ~seed ~mem_events obs =
  let stream = Renaming_rng.Stream.create seed in
  let inst =
    match algorithm with
    | "tight" | "tight-literal" ->
      let policy =
        if algorithm = "tight" then Params.Mass_conserving else Params.Paper_literal
      in
      let params = Params.make ~policy ~n () in
      let instr = Renaming_core.Tight.create_instrumentation ~obs params in
      Renaming_core.Tight.instance ~instr ~obs ~params ~stream ()
    | "loose-geometric" ->
      let cfg = { Renaming_core.Loose_geometric.n; ell } in
      let instr = Renaming_core.Loose_geometric.create_instrumentation ~obs cfg in
      Renaming_core.Loose_geometric.instance ~instr ~obs cfg ~stream
    | "loose-clustered" ->
      let cfg = { Renaming_core.Loose_clustered.n; ell } in
      let instr = Renaming_core.Loose_clustered.create_instrumentation ~obs cfg in
      Renaming_core.Loose_clustered.instance ~instr ~obs cfg ~stream
    | "cor7" ->
      Renaming_core.Combined.instance ~obs
        { Renaming_core.Combined.n; variant = Renaming_core.Combined.Geometric { ell } }
        ~stream
    | "cor9" ->
      Renaming_core.Combined.instance ~obs
        { Renaming_core.Combined.n; variant = Renaming_core.Combined.Clustered { ell } }
        ~stream
    | other ->
      Printf.eprintf
        "unknown algorithm %S (expected tight, tight-literal, loose-geometric, loose-clustered, \
         cor7 or cor9)\n"
        other;
      exit 2
  in
  Telemetry.attach ~events:mem_events obs inst.Executor.memory;
  inst

let trace_algorithm_arg =
  Arg.(value & opt string "tight" & info [ "algorithm"; "a" ] ~docv:"ALGO"
         ~doc:"One of: tight, tight-literal, loose-geometric, loose-clustered, cor7, cor9.")

(* Every live (non-crashed-at-end) pid must have recorded at least one
   event; used by --check and the CI trace-smoke step. *)
let check_pid_coverage ~n events =
  let seen = Array.make n false in
  List.iter
    (fun (e : Renaming_obs.Ring.event) ->
      if e.Renaming_obs.Ring.ev_pid >= 0 && e.Renaming_obs.Ring.ev_pid < n then
        seen.(e.Renaming_obs.Ring.ev_pid) <- true)
    events;
  let missing = ref [] in
  Array.iteri (fun pid b -> if not b then missing := pid :: !missing) seen;
  match !missing with
  | [] -> Ok ()
  | pids ->
    Error
      (Printf.sprintf "no events for %d pid(s): %s" (List.length pids)
         (String.concat ", " (List.map string_of_int (List.rev pids))))

(* Re-parse the written artifact with the validating parser, as an
   independent check that the exporter emitted well-formed JSON. *)
let check_trace_file ~format ~n path =
  let contents =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  match format with
  | `Jsonl -> (
    match Renaming_obs.Export.events_of_jsonl contents with
    | Error e -> Error ("jsonl: " ^ e)
    | Ok events -> check_pid_coverage ~n events)
  | `Chrome -> (
    match Json.of_string contents with
    | Error e -> Error ("chrome trace: " ^ e)
    | Ok doc -> (
      match Option.bind (Json.member "traceEvents" doc) Json.to_items with
      | None -> Error "chrome trace: no traceEvents array"
      | Some items ->
        let seen = Array.make n false in
        let bad = ref None in
        List.iter
          (fun item ->
            match (Json.member "ph" item, Json.member "tid" item) with
            | Some ph, Some tid -> (
              match (Json.to_str ph, Json.to_int tid) with
              | Some "M", _ -> ()
              | Some _, Some tid when tid >= 0 && tid < n -> seen.(tid) <- true
              | Some _, Some _ -> ()
              | _ -> bad := Some "chrome trace: malformed event (ph/tid types)")
            | _ -> bad := Some "chrome trace: event missing ph or tid")
          items;
        (match !bad with
        | Some e -> Error e
        | None ->
          let missing = ref 0 in
          Array.iter (fun b -> if not b then incr missing) seen;
          if !missing > 0 then
            Error (Printf.sprintf "chrome trace: %d pid track(s) have no events" !missing)
          else Ok ())))

let trace_cmd =
  let n = Arg.(value & opt int 256 & info [ "n" ] ~doc:"Number of processes.") in
  let ell = Arg.(value & opt int 2 & info [ "l" ] ~doc:"The l parameter of the loose algorithms.") in
  let seed = Arg.(value & opt int64 42L & info [ "seed" ] ~doc:"Random seed.") in
  let format =
    Arg.(value & opt (enum [ ("chrome", `Chrome); ("jsonl", `Jsonl) ]) `Chrome
         & info [ "format" ] ~docv:"FMT"
             ~doc:"$(b,chrome): a trace_event JSON document loadable in Perfetto / \
                   chrome://tracing; $(b,jsonl): one event object per line.")
  in
  let out =
    Arg.(value & opt (some string) None & info [ "out"; "o" ] ~docv:"FILE"
           ~doc:"Output path (default results/trace-<algo>.<ext>).")
  in
  let check =
    Arg.(value & flag & info [ "check" ]
           ~doc:"Re-parse the written file and verify every pid recorded at least one event; \
                 exit nonzero otherwise (the CI trace-smoke configuration).")
  in
  let mem_events =
    Arg.(value & flag & info [ "mem-events" ]
           ~doc:"Also record one instant event per shared-memory access (large traces).")
  in
  let ring_capacity =
    Arg.(value & opt int 1_048_576 & info [ "ring-capacity" ] ~docv:"N"
           ~doc:"Event-ring capacity; the oldest events are dropped beyond it.")
  in
  let run algorithm n ell seed format out check mem_events ring_capacity =
    let obs = Obs.create ~ring_capacity () in
    let inst = obs_instance ~algorithm ~n ~ell ~seed ~mem_events obs in
    let report = Executor.run ~obs ~adversary:(Adversary.round_robin ()) inst in
    let events = Obs.events obs in
    let out =
      match out with
      | Some path -> path
      | None ->
        Printf.sprintf "results/trace-%s.%s" algorithm
          (match format with `Chrome -> "json" | `Jsonl -> "jsonl")
    in
    (match format with
    | `Chrome -> write_file out (Export.chrome_trace ~process_name:inst.Executor.label events)
    | `Jsonl -> write_file out (Export.jsonl events));
    let dropped = Renaming_obs.Ring.dropped (Obs.ring obs) in
    Printf.printf "%s: n=%d ticks=%d max-steps=%d events=%d%s\n(trace written to %s)\n"
      inst.Executor.label n report.Report.ticks (Report.max_steps report) (List.length events)
      (if dropped > 0 then Printf.sprintf " (%d dropped: ring full)" dropped else "")
      out;
    if check then begin
      if dropped > 0 then begin
        Printf.eprintf "trace: --check needs the full trace; raise --ring-capacity\n";
        exit 1
      end;
      match check_trace_file ~format ~n out with
      | Ok () -> Printf.printf "(check ok: valid JSON, all %d pids have events)\n" n
      | Error e ->
        Printf.eprintf "trace: check failed: %s\n" e;
        exit 1
    end
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run one instrumented renaming instance and export its trace: per-process round / probe \
          / win / lose spans from the algorithm, executor step and crash / recover events, as a \
          Chrome trace_event document (Perfetto-loadable) or a JSONL event stream.")
    Term.(const run $ trace_algorithm_arg $ n $ ell $ seed $ format $ out $ check $ mem_events
          $ ring_capacity)

let metrics_cmd =
  let n = Arg.(value & opt int 256 & info [ "n" ] ~doc:"Number of processes.") in
  let ell = Arg.(value & opt int 2 & info [ "l" ] ~doc:"The l parameter of the loose algorithms.") in
  let seed = Arg.(value & opt int64 42L & info [ "seed" ] ~doc:"Random seed.") in
  let out =
    Arg.(value & opt string "results/metrics.json" & info [ "out"; "o" ] ~docv:"FILE"
           ~doc:"Write the metrics snapshot JSON to $(docv).")
  in
  let run algorithm n ell seed out =
    let obs = Obs.create () in
    let inst = obs_instance ~algorithm ~n ~ell ~seed ~mem_events:false obs in
    (* The safety monitor rides along, so the snapshot also carries the
       refine/events, refine/stutters and refine/violations counters. *)
    let monitor =
      Renaming_faults.Monitor.create ~obs ~mode:Renaming_faults.Monitor.Tas inst
    in
    let report =
      Executor.run ~obs ~on_event:(Renaming_faults.Monitor.hook monitor)
        ~adversary:(Adversary.round_robin ()) inst
    in
    write_file out (Json.to_document (Export.metrics_json ~label:inst.Executor.label (Obs.metrics obs)));
    Printf.printf "%s: n=%d ticks=%d max-steps=%d unnamed=%d\n(metrics written to %s)\n"
      inst.Executor.label n report.Report.ticks (Report.max_steps report)
      (List.length (Report.surviving_unnamed report))
      out
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:
         "Run one instrumented renaming instance and write the full metrics-registry snapshot \
          (probe/win/loss counters, per-process step histograms, migrated per-round \
          instrumentation vectors, memory access counts) as JSON.")
    Term.(const run $ trace_algorithm_arg $ n $ ell $ seed $ out)

let () =
  let doc = "Randomized renaming in shared memory systems (IPDPS 2015) — reproduction toolkit" in
  let info = Cmd.info "renaming" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            list_cmd;
            run_cmd;
            demo_cmd;
            multicore_cmd;
            trace_cmd;
            metrics_cmd;
            chaos_cmd;
            mcheck_cmd;
            fuzz_cmd;
            shrink_cmd;
            analyze_cmd;
          ]))
