(** The canonical observable-event vocabulary of the refinement layer.

    Every backend — the one-shot executors, the lease service, the
    sharded router, the net path — is reduced to a stream of these
    events by an adapter (the executors' safety monitor,
    [Renaming_faults.Monitor]; {!Lease_adapter}); the
    stream is then replayed against the centralized {!Spec}.  Anything
    a backend does that has no counterpart here (handoffs, retransmits,
    dedup replays, renewals) is an internal step and must refine to a
    spec stutter.

    [session] identifies the party a name is accounted to: the pid for
    the one-shot executors, the minted session id for the lease
    service.  [name] is always a {e global} name (adapters globalize
    slice-local names before emitting). *)

type t =
  | Invoked of { session : int }  (** the session asked for a name *)
  | Granted of { session : int; name : int }  (** the backend assigned [name] *)
  | Claimed of { session : int; name : int }
      (** the session {e asserted} it holds [name] (a returned value, a
          successful ownership probe) — checked against the spec but
          never changes spec state *)
  | Released of { session : int; name : int }  (** an accepted release *)
  | Crashed of { session : int }
  | Recovered of { session : int }
  | Reclaimed of { session : int; name : int }
      (** the backend recovered [name] from a dead or expired holder *)
  | Shed of { session : int }  (** the request was refused before any grant *)

val pp : Format.formatter -> t -> unit

(** {2 Announce encoding}

    Model programs written against the plain executor announce their
    observable events by writing an encoded event to a dedicated
    read/write word register (word 0 by convention — see
    {!Grant_model}).  The encoding packs the constructor tag in bits
    0–3 (tags 1–8; 0 is reserved so an untouched register never decodes
    to an event), the session in bits 4–15 and the name above. *)

val encode : t -> int
val decode : int -> t option
(** [None] on tag 0 or an out-of-range tag — the adapter reports a
    malformed announce rather than guessing. *)
