(** Adapter from the lease-service event stream to the {!Spec}, the
    lease path's only safety oracle: the refinement view of the
    {!Renaming_service.Router} (a single service is a one-shard
    router) and the net path.  It rides the router's tap
    ([Router.create ?tap]), so observing changes nothing about the run,
    and judges each event at the router's clock by the spec's timed
    lease rules ({!Spec.section-timed}):

    - [Granted] → [Invoked] (sessions are minted per attempt, so the
      invocation is implicit) + {!Check.lease} with the expiry, the
      slice and the slice's capacity;
    - accepted [Renewed] / [Validated] → {!Check.renew} / {!Check.use},
      passed straight to the spec without building an event, so they
      allocate nothing;
    - accepted [Released] → [Released]; [Reclaimed] → [Reclaimed];
    - a {e fenced} release, renewal or validation is the fence doing its
      job — a stutter;
    - a slice absorb → {!Check.absorb} for every name the spec holds in
      the slice's global range;
    - clean slice handoffs move the body intact and emit nothing — they
      refine to stutters for free.

    The first rejection raises [Audit.Violation] with the kind
    ["refine:<reason>"] from the tap call that heard it, so
    [Net_churn.run] stops there and reports it as its [violation].

    The spec runs in lease mode ([one_shot = false]): a session may
    hold several leases at once (a queue ticket abandoned after a
    timeout can still grant after the retry did), and is forgotten once
    it holds nothing. *)

type t

val create : ?obs:Renaming_obs.Obs.t -> namespace:int -> unit -> t
(** [namespace]: total slots, [slices × slice_width]. *)

val check : t -> Check.t

val router_tap : t -> slice_width:int -> Renaming_service.Router.tap_event -> unit
(** Shape of [Router.create ?tap] (partially applied on
    [slice_width]); globalizes slice-local names. *)

val run :
  ?obs:Renaming_obs.Obs.t ->
  Renaming_service.Net_churn.config ->
  seed:int64 ->
  Renaming_service.Net_churn.summary * Check.t
(** [Net_churn.run] with a fresh adapter on its router's tap, sized
    from the config: the run, and the checker that judged it. *)
