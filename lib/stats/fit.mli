(** Least-squares fits of measured complexities against candidate
    asymptotic shapes.

    The reproduction cannot match the paper's absolute constants (there
    are none), but it must confirm *shapes*: tight renaming grows like
    [log n], the loose algorithms like [(log log n)^ℓ], the bitonic
    baseline like [log² n].  We fit [y ≈ a·f(n) + b] for each candidate
    [f] and report which shape explains the data best (highest R²). *)

type shape =
  | Constant
  | Log  (** log₂ n *)
  | Log_squared  (** (log₂ n)² *)
  | Log_log  (** log₂ log₂ n *)
  | Log_log_squared  (** (log₂ log₂ n)² *)
  | Log_log_pow of int  (** (log₂ log₂ n)^k *)
  | Linear  (** n *)

val eval_shape : shape -> float -> float
(** [eval_shape s n] evaluates the shape function at [n] (n ≥ 4 expected;
    smaller inputs are clamped so the double-log is defined). *)

type fit = {
  shape : shape;
  slope : float;  (** a in y = a·f(n) + b *)
  intercept : float;  (** b *)
  r_squared : float;  (** coefficient of determination *)
}

val best_fit : ?candidates:shape list -> (float * float) array -> fit
(** Least-squares fits [y = a·f(n) + b] over [(n, y)] points for every
    candidate [f] (default: all shapes above except [Log_log_pow]) and
    returns the one with the highest R².  Raises [Invalid_argument]
    with fewer than two points. *)

val pp_fit : Format.formatter -> fit -> unit
