(** The [unused-export] rule: a value a [lib/] interface exports must
    be used from outside its own module by some non-test code.

    The rule reads the typed trees ([.cmt]/[.cmti]) that
    [dune build @check] writes.  A use is an identifier or a binding
    operator ([let*] and friends), matched to the declaration through
    the [val_loc] the type checker stamped on it, so [open], module
    aliases and shadowing cannot fool it.  A module passed on whole (a
    functor argument, a first-class module, an [include]) uses every
    value in its signature.  An export used only from the test
    directories is flagged too, unless a waiver comment for this rule
    (docs/static_analysis.md) sits on its line or the line above.  A
    waiver for this rule that matches no finding is itself a finding,
    which no waiver excuses: it outlived the export it excused, or the
    export has gained a caller.

    No silent pass: a scanned source with no compiled unit, or whose
    unit was compiled from different text, is an unwaivable finding,
    and a configured directory that does not exist (under either root)
    raises [Sys_error]. *)

type config = {
  src_root : string;  (** the tree the scanned directories are read from *)
  build_root : string;  (** dune's context directory, where the typed trees live *)
  exports : string list;  (** directories whose exports are checked *)
  users : string list;  (** directories whose uses keep an export *)
  tests : string list;  (** directories whose uses keep an export only with a waiver *)
}

val default : config
(** The repository layout: exports of [lib], used from [lib], [bin],
    [e2e_bench] and [examples]; tests in [test] and
    [e2e_bench/test]; typed trees under [_build/default]. *)

type report = { exported : int; findings : Lint.finding list }
(** [exported] counts the values the [exports] directories export
    (0 when a unit is missing or stale). *)

val run : config -> report
