(** Adapter from the lease-service audit streams to the {!Obs_event}
    vocabulary — the refinement view of the {!Renaming_service.Router}
    (a single service is a one-shard router) and the net path.

    The mapping rides the tap the router already exposes
    ([Router.create ?tap]), so observing changes nothing about the
    run:

    - [Granted] → [Invoked] + [Granted] (sessions are minted per
      attempt, so the invocation is implicit in the grant);
    - accepted [Released] → [Released]; a {e fenced} release/renew/
      validate is the fence doing its job — a stutter;
    - [Reclaimed] → [Reclaimed];
    - renewals and validations → stutters;
    - a router slice absorb → [Reclaimed] for every name the spec
      still believes is held in the slice's global range (the absorb
      fires only after [grace ≥ ttl], so every such lease has expired);
    - clean slice handoffs move the body intact and emit no audit
      events at all — they refine to stutters for free.

    Unlike the executor adapters this one never raises: the discrete
    event simulations drive millions of sessions and a violation is
    reported through {!Check.violations} / {!Check.first_violation} at
    the end of the run.

    The spec runs in lease mode ([one_shot = false]): a session may
    legally hold several leases at once (a queue ticket abandoned after
    a timeout can still grant after the session's retry already did),
    so only the uniqueness / namespace-bound / fencing invariants
    bind. *)

type t

val create : ?obs:Renaming_obs.Obs.t -> namespace:int -> unit -> t
(** [namespace]: total slots, [slices × slice_width]. *)

val check : t -> Check.t

val router_tap : t -> slice_width:int -> Renaming_service.Router.tap_event -> unit
(** Shape of [Router.create ?tap] (partially applied on
    [slice_width]); globalizes slice-local names. *)
