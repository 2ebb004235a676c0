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

    Every cell is a {!Net_churn} config:

    - {!service}: closed-loop churn against a single {!Service}, a
      one-shard, one-slice {!Router} over {!Transport.perfect}:
      utilization shedding, queue-only admission, a correlated client
      crash burst and Zipf-hot churn at crash rates of 25–35%, 150,000
      sessions per cell by default (schema ["renaming.chaos-service/3"]).
    - {!sharded}: four shards over {!Transport.perfect} — Zipf-skewed
      rebalancing, correlated shard crashes, crash-during-handoff and
      stall routing (schema ["renaming.chaos-sharded/2"]).
    - {!net}: four shards over the unreliable transport — loss,
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

type t = {
  name : string;  (** the CLI flag, and the [chaos_<name>/] obs prefix *)
  schema : string;
  default_sessions : int;  (** sessions per cell *)
  cells : sessions:int -> (string * Net_churn.config) list;
  fields : Net_churn.summary -> (string * Renaming_obs.Json.t) list;
      (** one run's JSON fields, written after its cell and seed *)
  totals : (string * (Net_churn.summary -> int)) list;
      (** summed over runs; written in this order as [total_<name>] *)
  checks : check list;
  brief : string list;  (** the fields {!pp} prints for each run *)
}

val service : t
val sharded : t
val net : t

type result = {
  runs : (string * int64 * Net_churn.summary) list;
      (** (cell, seed, summary), cells × seeds in order *)
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

val to_json : t -> result -> string
(** The schema, the totals, then one object per run. *)

val pp : t -> Format.formatter -> result -> unit
