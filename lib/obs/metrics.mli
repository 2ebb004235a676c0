(** The metrics registry of one telemetry capability: named counters,
    fixed-bucket histograms, read-through gauges and externally-owned
    counter vectors.

    Handles ([counter], {!Hist.t}) are resolved once and incremented as
    plain mutable fields — no hashing on the hot path.  [snapshot]
    walks the registry in sorted name order, so snapshot output is
    deterministic. *)

type t

type counter

val create : unit -> t

val counter : t -> string -> counter
(** Get-or-create.  Raises [Invalid_argument] if [name] is already
    registered as a different kind. *)

val incr : counter -> unit
val add : counter -> int -> unit

val histogram : ?bounds:int array -> t -> string -> Hist.t
(** Get-or-create (power-of-two bounds unless [bounds] given). *)

val gauge : t -> string -> (unit -> float) -> unit
(** Register a read-through gauge; re-registering rebinds it. *)

val vector : t -> string -> int array -> unit
(** Register an externally-owned indexed counter array (for example
    [Tight.instrumentation]'s per-τ request counts); the snapshot reads
    the array's current contents.  Re-registering rebinds it. *)

type value =
  | V_counter of int
  | V_histogram of Hist.t
  | V_gauge of float
  | V_vector of int array

val snapshot : t -> (string * value) list
(** Current values, sorted by name. *)

(* lint: allow unused-export — test hook: reads back an exported counter *)
val find_counter : t -> string -> int option
val find_histogram : t -> string -> Hist.t option
