(** Moir–Anderson grid renaming: the deterministic read/write baseline.

    Splitters are arranged on the triangular grid
    [{(r, d) : r + d ≤ side − 1}]; a process starts at [(0,0)], moves
    right on [Right], down on [Down], and claims the cell's name on
    [Stop].  With [k ≤ side] participants every process stops within
    the first [k] diagonals (each move past a splitter means another
    process is ahead of it), so:

    - namespace: the triangle's [side·(side+1)/2] cells — the Θ(k²)
      namespace that separates deterministic read/write renaming from
      the TAS-based algorithms of the paper;
    - step complexity: ≤ 4 splitter steps per move, ≤ k moves — Θ(k),
      the deterministic lower-bound regime ([9]: deterministic renaming
      costs Ω(n)).

    The stop cell is exclusive by the splitter property; the process
    also test-and-sets the cell's name register so the usual assignment
    validation applies (a TAS failure there would witness a splitter
    violation and is counted in the instrumentation — it never fires). *)

type config = {
  n : int;  (** participants *)
  side : int;  (** triangle side; must be ≥ n for the guarantee *)
}

val make_config : ?side:int -> n:int -> unit -> config
(** [side] defaults to [n]. *)

val namespace : config -> int
(** [side·(side+1)/2]. *)

(* lint: allow unused-export — test hook: the cell layout is injective into the namespace *)
val cell_index : side:int -> r:int -> d:int -> int
(** Row-major index of cell [(r, d)] on diagonal [r + d]. *)

type instrumentation = {
  mutable splitter_violations : int;
      (** stop-cell TAS losses; the splitter property says 0 *)
  mutable boundary_exits : int;
      (** processes that walked off the triangle (only possible when
          [n > side]) *)
}

val create_instrumentation : unit -> instrumentation

val run :
  ?instr:instrumentation ->
  ?adversary:Renaming_sched.Adversary.t ->
  config ->
  Renaming_sched.Report.t
