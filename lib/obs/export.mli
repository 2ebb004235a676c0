(** Exporters for the telemetry capability.  Schemas are documented in
    docs/observability.md; all output is deterministic for a
    deterministic run. *)

(** {2 JSONL event stream} *)

val jsonl : Ring.event list -> string
(** One JSON object per line. *)

val events_of_jsonl : string -> (Ring.event list, string) result
(** Inverse of [jsonl] (blank lines ignored). *)

(** {2 Chrome trace_event} *)

val chrome_trace : ?process_name:string -> Ring.event list -> string
(** A [{"traceEvents": [...]}] document loadable in Perfetto or
    chrome://tracing: one thread track per simulated pid (named via
    thread_name metadata), spans as B/E pairs, instants as "i" events,
    logical executor ticks as the microsecond timestamps. *)

(** {2 Metrics snapshot} *)

val hist_json : Hist.t -> Json.t
val metrics_json : ?label:string -> Metrics.t -> Json.t
