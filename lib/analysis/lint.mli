(** Source-level concurrency lint for the library tree.

    Parses each [.ml] file with the toolchain's own compiler-libs
    parser and flags patterns that undermine determinism or confine-
    ment of shared state (docs/static_analysis.md has the catalogue):

    - [global-mutable]: module-level bindings that allocate mutable
      state at load time ([ref ...], [Atomic.make ...],
      [Hashtbl.create ...], [Array.make ...], ...);
    - [atomic-outside-shm]: any [Atomic.*] use outside the whitelisted
      directories (default: [lib/concurrent], [lib/shm]);
    - [obj-magic]: any [Obj.*] use;
    - [nondeterministic-rng]: any [Random.*] use (hidden global state;
      [Random.self_init] additionally seeds from the wall clock);
    - [wall-clock]: [Unix.gettimeofday], [Unix.time], [Sys.time], ...;
    - [unstable-hash]: [Hashtbl.hash] and friends, whose output may
      change between OCaml releases;
    - [stdout-print]: direct channel printing ([Printf.printf],
      [Printf.eprintf], [Format.printf], [print_endline], [prerr_*],
      ...) outside the print-whitelisted directories (default:
      [lib/obs], whose exporters render output for the [bin/] edge) —
      library code returns data instead of writing to channels.

    A finding is waived with an inline comment on the same line or the
    line above: [(* lint: allow wall-clock — benchmarking *)]; waived
    findings stay in the report but do not fail the run. *)

type finding = {
  l_file : string;
  l_line : int;
  l_rule : string;
  l_message : string;
  l_waived : bool;
}

val files : ?hidden:bool -> string -> string list
(** Every file under a directory, recursively, in sorted order, skipping
    [_build] and (unless [hidden]) dotted directories.  A directory
    that does not exist raises [Sys_error], never reads as empty. *)

val lint_dir :
  ?whitelist:string list -> ?print_whitelist:string list -> string -> int * finding list
(** Walk [root] recursively (skipping [_build] and dotted directories)
    and lint every [.ml] file; returns (files linted, findings).  Raises
    [Sys_error] if [root] does not exist. *)

val waiver_rules : string -> string list
(** The rules a line's waiver comment lists ([[]] without one); [all]
    is listed as itself. *)

val is_waived : lines:string array -> rule:string -> line:int -> bool
(** Does line [line] (1-based) of a file split into [lines], or the
    line above it, carry a waiver for [rule]? *)

val active : finding list -> finding list
(** The findings that are not waived — the ones that fail the run. *)

val pp_finding : Format.formatter -> finding -> unit
