(** Empirical checks of "with high probability" claims.

    The paper's guarantees have the form: event [A_n] fails with
    probability at most [n^{-c}].  Over a finite number of trials we
    verify (a) the failure frequency is below a tolerance, and (b) the
    failure frequency is consistent with the claimed polynomial decay
    across the sweep of [n]. *)

type verdict = {
  trials : int;
  failures : int;
  failure_rate : float;
  bound : float;  (** the claimed bound (e.g. 1/n) at this instance size *)
  holds : bool;  (** failure_rate <= max bound tolerance *)
}

val check : trials:int -> bound:float -> failed:(int -> bool) -> verdict
(** [check ~trials ~bound ~failed] runs [failed i] for each trial index
    [i] and compares the empirical failure rate with [bound].  The
    verdict [holds] allows for sampling noise: it accepts when the
    observed failures are within what a true failure probability of
    [bound] would produce at 3 sigma, with an absolute floor of one
    failure. *)
