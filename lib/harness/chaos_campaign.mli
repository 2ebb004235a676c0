(** The lease-service chaos campaigns ([renaming chaos --service],
    [--sharded], [--net]) as values of one type, swept by one runner.

    A campaign is data: its JSON schema, its default sessions per cell,
    its cells (a name and a simulator config each), the totals summed
    over runs, and the checks a clean report must pass — totals that
    must be 0 (safety: violations, livelocks, wrong fences, fencing
    holes) and totals that must be positive, so a clean report cannot
    come from a fault path silently not running.  Every campaign
    demands that ghost replays fired ([stale_ops > 0]).

    Every run is written the same way, whatever its campaign: its cell
    and seed, then every field of its
    {!Renaming_service.Net_churn.summary} and of the summary's
    sub-records ([net], [dedup], [detector], [router], [service]) under
    the field's own name, in record order.  The router's [redirects]
    and [in_handoff_busy] repeat summary fields and are written as
    [router_redirects] and [router_in_handoff_busy]; the four
    histograms are [hist_probes], [hist_reclaim_lateness],
    [hist_queue_wait] and [hist_lease_lifetime].  A total is the sum of
    one of those int fields over the runs; every campaign also totals
    [violations] (runs whose [violation] is not null), [livelocks]
    (runs with [livelocked]) and [refine_events].

    Every run is judged by the refinement spec
    ([Renaming_refine.Lease_adapter.run]): its first rejection ends the
    run as its [violation], and every campaign demands that it heard
    events ([refine_events > 0]).  Each run's JSON ends with
    [refine_events] and [refine_held] (names the spec holds at the end,
    leases of lost bodies included).

    Every cell is a {!Renaming_service.Net_churn} config:

    - {!service}: closed-loop churn against a single service, a
      one-shard, one-slice router over a perfect transport:
      utilization shedding, queue-only admission, a correlated client
      crash burst and Zipf-hot churn at crash rates of 25–35%, 150,000
      sessions per cell by default (schema ["renaming.chaos-service/6"]).
    - {!sharded}: four shards over a perfect transport — Zipf-skewed
      rebalancing, correlated shard crashes, crash-during-handoff and
      stall routing (schema ["renaming.chaos-sharded/5"]).
    - {!net}: four shards over the unreliable transport — loss,
      duplication and reordering, directional partitions and silent
      shard crashes found by heartbeat loss (schema
      ["renaming.chaos-net/4"]).

    Runs are deterministic in their seeds, so the JSON is too. *)

type check =
  | Zero of string * string
      (** [Zero (total, what)] fails with ["N what"] when [total] is N > 0. *)
  | Fired of string list * string
      (** [Fired (totals, what)] fails with ["no what"] when [totals] sum
          to 0. *)

type t = {
  name : string;  (** the CLI flag, and the [chaos_<name>/] obs prefix *)
  schema : string;
  default_sessions : int;  (** sessions per cell *)
  cells : sessions:int -> (string * Renaming_service.Net_churn.config) list;
  totals : string list;
      (** run fields summed over runs; written in this order as
          [total_<name>], followed by [total_violations],
          [total_livelocks] and [total_refine_events] *)
  checks : check list;
  brief : string list;  (** the fields {!pp} prints for each run *)
}

val safe : Renaming_service.Net_churn.summary -> bool
(** The run passes the safety checks every campaign makes: no
    violation, no livelock, no live operation wrongly fenced and no
    stale operation accepted. *)

val service : t
val sharded : t
val net : t

type run = {
  cell : string;
  seed : int64;
  summary : Renaming_service.Net_churn.summary;
  refine_events : int;  (** events the refinement spec judged *)
  refine_held : int;  (** names the spec held at the end *)
}

type result = {
  runs : run list;  (** cells × seeds in order *)
  totals : (string * int) list;
}

val run :
  ?progress:(done_:int -> total:int -> unit) ->
  ?obs:Renaming_obs.Obs.t ->
  t ->
  sessions:int ->
  seeds:int64 array ->
  result
(** With [obs], also adds the run count to [chaos_<name>/runs] and each
    total to [chaos_<name>/<total>]. *)

val failures : t -> result -> string list
(** One message per failed check, in the campaign's check order. *)

val to_json : t -> result -> Renaming_obs.Json.t
(** The schema, the totals, then one object per run. *)

val pp : t -> Format.formatter -> result -> unit
