module Net_churn = Renaming_service.Net_churn
module Lease_adapter = Renaming_refine.Lease_adapter
module Service = Renaming_service.Service
module Hist = Renaming_obs.Hist

(* T17: the lease service under closed-loop crash-restart churn.  Each
   row is one cell of the [chaos --service] campaign at one seed: a
   churn simulation against a single Service behind a one-shard router,
   over a perfect transport.  The claim under measurement is graceful
   degradation — grants keep flowing, crashed clients' names come back
   via lease reclamation (never a double grant), overload is resolved
   by structured shedding/timeouts rather than collapse. *)
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
      let s, _ = Lease_adapter.run cfg ~seed:(Seeds.take 1).(0) in
      let sv = s.Net_churn.service in
      Table.add_row table
        [
          name;
          Table.cell_int s.Net_churn.sessions;
          Table.cell_float ~decimals:0 (100. *. cfg.Net_churn.crash_rate);
          Table.cell_int sv.Service.grants;
          Table.cell_int sv.Service.reclaims;
          Table.cell_int (sv.Service.sheds_high_water + sv.Service.sheds_queue_full);
          Table.cell_int sv.Service.expired_requests;
          Table.cell_int s.Net_churn.stale_rejected;
          Table.cell_float (Hist.mean s.Net_churn.h_probes);
          Table.cell_float (Hist.mean s.Net_churn.h_reclaim);
          Table.cell_int s.Net_churn.peak_held;
          Table.cell_bool (Chaos_campaign.safe s);
        ])
    (Chaos_campaign.service.Chaos_campaign.cells ~sessions);
  Table.add_note table
    "safe = no refinement-spec violation, no livelock, no live operation wrongly fenced, no stale (crashed-then-woken) operation accepted; reclaim p-mean is mean centiticks between lease expiry and reclamation";
  table
