(** Zipf-distributed skew for workload generation.

    Real client populations are not uniform: a few hot clients issue
    most of the traffic.  A [Zipf.t] holds the weights of the Zipf(s)
    distribution over ranks [0..n-1] (probability of rank [k]
    proportional to [1/(k+1)^s]), so that per-client think times can be
    scaled by rank (hot clients re-arrive sooner). *)

type t

val create : ?s:float -> n:int -> unit -> t
(** [s] is the skew exponent, default 1.0; [s = 0.] degenerates to
    uniform.  [n] must be >= 1. *)

val relative_pressure : t -> int -> float
(** [weight k / weight (n-1)] — how much hotter rank [k] is than the
    coldest rank; >= 1 and non-increasing in [k], used to scale think
    times down for hot clients.  Raises [Invalid_argument] unless
    [0 <= k < n]. *)
