(** Bootstrap confidence intervals for experiment tables.

    The w.h.p. statements of the paper concern tail probabilities; when
    we report a mean over a handful of seeded runs we attach a
    percentile-bootstrap interval so EXPERIMENTS.md can state how firm
    each measured number is. *)

type interval = { lo : float; mean : float; hi : float }

(* lint: allow unused-export — unit-tested, no caller yet: bootstrap interval *)
val mean_ci :
  ?resamples:int ->
  ?confidence:float ->
  rng:Renaming_rng.Xoshiro.t ->
  float array ->
  interval
(** [mean_ci ~rng samples] is the percentile bootstrap interval for the
    mean ([resamples] defaults to 2000, [confidence] to 0.95).  Raises
    [Invalid_argument] on an empty sample or a confidence outside
    (0, 1). *)
