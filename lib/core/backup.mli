(** The backup loose-renaming phase used by Corollaries 7 and 9.

    The paper delegates the [o(n)] stragglers to the O(log log n)
    loose-renaming algorithm of Alistarh, Aspnes, Giakkoupis and Woelfel
    (PODC'13, reference [8]) on a reserved namespace [n+1 … n+2u].  We
    implement a shape-preserving stand-in (documented in DESIGN.md §2):
    doubling batches of uniform probes into the reserved slice.  With
    [u] stragglers and [2u] fresh names, at least half the slice is
    always free, so every probe succeeds with probability ≥ 1/2 and
    batch doubling drives the unnamed count down double-exponentially —
    the same decay the AAGW analysis provides.  A final deterministic
    sweep of the slice guarantees termination unconditionally (the slice
    always holds enough free names for every survivor). *)

val program :
  base:int ->
  size:int ->
  rng:Renaming_rng.Xoshiro.t ->
  int option Renaming_sched.Program.t
(** Probes names [base .. base+size-1].  Returns [Some name]; [None] is
    impossible unless more than [size] processes run the program. *)

(* lint: allow unused-export — test hook: the random-phase budget *)
val max_random_steps : size:int -> int
(** Random probes spent before the deterministic sweep kicks in
    (the doubling rounds stop once a batch would exceed [4·size]). *)
