(* What a shard answers a forwarded request with: the reply a slice
   body's dedup table caches ({!Shard.slice}), so that a retransmit
   replays it without re-executing. *)

type gfence = { gf_slice : int; gf_fence : Lease.fence }  (** {!Router.gfence} *)

type t =
  | B_granted of { shard : int; fence : gfence }
  | B_queued
  | B_shed
  | B_busy of [ `Down | `Handoff ]
  | B_redirect of { shard : int }
  | B_timeout
  | B_fenced
  | B_ok
  | B_renewed of float  (** the expiry the service set *)
