module Shard_churn = Renaming_service.Shard_churn
module Chaos_campaign = Renaming_service.Chaos_campaign
module Service = Renaming_service.Service
module Hist = Renaming_obs.Hist

(* T17: the lease service under closed-loop crash-restart churn.  Each
   row is one cell of the [chaos --service] campaign at one seed: a
   churn simulation against a single Service behind a one-shard router.
   The claim under measurement is graceful degradation — grants keep
   flowing, crashed clients' names come back via lease reclamation
   (never a double grant), overload is resolved by structured
   shedding/timeouts rather than collapse. *)
let t17 scale =
  let table =
    Table.create ~title:"T17: lease-based renaming service under churn (crash/reclaim/shed)"
      ~columns:
        [
          "cell"; "sessions"; "crash%"; "grants"; "reclaims"; "sheds"; "expired";
          "stale fenced"; "probes/grant"; "reclaim p-mean"; "peak held"; "safe";
        ]
  in
  let sessions =
    match scale with Runcfg.Quick -> 20_000 | Runcfg.Full -> 150_000
  in
  List.iter
    (fun (name, cfg) ->
      let s = Shard_churn.run cfg ~seed:(Seeds.take 1).(0) in
      let sv = s.Shard_churn.service in
      Table.add_row table
        [
          name;
          Table.cell_int s.Shard_churn.sessions;
          Table.cell_float ~decimals:0 (100. *. cfg.Shard_churn.crash_rate);
          Table.cell_int sv.Service.grants;
          Table.cell_int sv.Service.reclaims;
          Table.cell_int (sv.Service.sheds_high_water + sv.Service.sheds_queue_full);
          Table.cell_int sv.Service.expired_requests;
          Table.cell_int s.Shard_churn.stale_rejected;
          Table.cell_float (Hist.mean s.Shard_churn.h_probes);
          Table.cell_float (Hist.mean s.Shard_churn.h_reclaim);
          Table.cell_int s.Shard_churn.peak_held;
          Table.cell_bool
            (s.Shard_churn.violation = None && (not s.Shard_churn.livelocked)
            && s.Shard_churn.stale_rejected = s.Shard_churn.stale_ops
            && s.Shard_churn.unexpected_fenced = 0);
        ])
    (Chaos_campaign.service.Chaos_campaign.cells ~sessions);
  Table.add_note table
    "safe = no audit violation, no livelock, every stale (crashed-then-woken) operation fenced; reclaim p-mean is mean centiticks between lease expiry and reclamation";
  table
