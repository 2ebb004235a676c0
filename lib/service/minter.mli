(** Session-id minting on top of the token dispenser.

    Every client session — including a crashed client's restart — needs
    a globally unique id.  We mint them from
    {!Renaming_apps.Token_dispenser} blocks: each block is a dispenser
    of bounded capacity, and when it runs dry we chain a fresh one at
    the next id offset.  Uniqueness is then exactly the dispenser's
    guarantee, block by block, forever. *)

type t

val create : ?block_capacity:int -> ?tau:int -> rng:Renaming_rng.Xoshiro.t -> unit -> t
(** [block_capacity] ids per dispenser block (default 4096); [tau] is
    the per-device threshold passed through to the dispenser. *)

val mint : t -> int
(** A fresh, never-before-returned session id. *)
