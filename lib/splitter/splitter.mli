(** The Moir–Anderson splitter: the classic wait-free read/write
    primitive behind deterministic renaming.

    A splitter owns two atomic read/write registers, [X] (a pid) and
    [Y] (a door bit).  A process runs

    {v
      X := p
      if Y = 1 then return Right
      Y := 1
      if X = p then return Stop else return Down
    v}

    Among the [k ≥ 1] processes that enter one splitter:
    - at most one returns [Stop],
    - at most [k − 1] return [Right],
    - at most [k − 1] return [Down].

    Four shared-memory steps per visit.  The paper's deterministic
    related-work baseline (Θ(n) renaming from read/write registers,
    e.g. Moir–Anderson; see also the survey [5]) is built from a grid
    of these in {!Grid}. *)

type outcome = Stop | Right | Down

val words_per_splitter : int
(** 2: the X and Y registers. *)

val enter : base:int -> pid:int -> outcome Renaming_sched.Program.t
(** Run the splitter whose X register is [words.(base)] and door is
    [words.(base+1)].  [pid] must be ≥ 0 (stored as [pid+1]; 0 means
    empty). *)
