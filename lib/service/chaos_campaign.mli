(** The lease-service chaos campaigns ([renaming chaos --service],
    [--sharded], [--net]) as values of one type, swept by one runner.

    A campaign is data: its JSON schema, its default sessions per cell,
    its cells (a name and a simulator config each), the JSON fields of
    one run, the totals summed over runs, and the checks a clean report
    must pass — totals that must be 0 (safety: audit violations,
    livelocks, wrong fences, fencing holes) and totals that must be
    positive, so a clean report cannot come from a fault path silently
    not running.  Every campaign demands that ghost replays fired
    ([stale_ops > 0]).

    - {!service}: closed-loop churn against a single {!Service}, run as
      {!Shard_churn} over a one-shard, one-slice {!Router}: utilization
      shedding, queue-only admission, a correlated client crash burst
      and Zipf-hot churn at crash rates of 25–35%, over 10^6 sessions by
      default (schema ["renaming.chaos-service/2"]).
    - {!sharded}: {!Shard_churn} over four shards — Zipf-skewed
      rebalancing, correlated shard crashes, crash-during-handoff and
      stall routing (schema ["renaming.chaos-sharded/1"]).
    - {!net}: {!Net_churn} over the unreliable transport — loss,
      duplication and reordering, directional partitions and silent
      shard crashes found by heartbeat loss (schema
      ["renaming.chaos-net/1"]).

    Runs are deterministic in their seeds, so the JSON is too. *)

type check =
  | Zero of string * string
      (** [Zero (total, what)] fails with ["N what"] when [total] is N > 0. *)
  | Fired of string list * string
      (** [Fired (totals, what)] fails with ["no what"] when [totals] sum
          to 0. *)

type ('cfg, 's) t = {
  name : string;  (** the CLI flag, and the [chaos_<name>/] obs prefix *)
  schema : string;
  default_sessions : int;  (** sessions per cell *)
  cells : sessions:int -> (string * 'cfg) list;
  run : ?obs:Renaming_obs.Obs.t -> 'cfg -> seed:int64 -> 's;
  fields : 's -> (string * Renaming_obs.Json.t) list;
      (** one run's JSON fields, written after its cell and seed *)
  totals : (string * ('s -> int)) list;
      (** summed over runs; written in this order as [total_<name>] *)
  checks : check list;
  brief : string list;  (** the fields {!pp} prints for each run *)
}

val service : (Shard_churn.config, Shard_churn.summary) t
val sharded : (Shard_churn.config, Shard_churn.summary) t
val net : (Net_churn.config, Net_churn.summary) t

type 's result = {
  runs : (string * int64 * 's) list;  (** (cell, seed, summary), cells × seeds in order *)
  totals : (string * int) list;
}

val run :
  ?progress:(done_:int -> total:int -> unit) ->
  ?obs:Renaming_obs.Obs.t ->
  ('cfg, 's) t ->
  sessions:int ->
  seeds:int64 array ->
  's result
(** With [obs], also adds the run count to [chaos_<name>/runs] and each
    total to [chaos_<name>/<total>]. *)

val failures : ('cfg, 's) t -> 's result -> string list
(** One message per failed check, in the campaign's check order. *)

val to_json : ('cfg, 's) t -> 's result -> string
(** The schema, the totals, then one object per run. *)

val pp : ('cfg, 's) t -> Format.formatter -> 's result -> unit
