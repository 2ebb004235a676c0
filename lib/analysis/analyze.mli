(** One-shot driver for the whole static-analysis layer: the pairwise
    commutation audit, the dynamic footprint-coverage audit over a
    roster of instances, the DPOR dependence-relation audit, and the
    source lint — aggregated into the [results/analyze.json] payload of
    [renaming analyze]. *)

type t = {
  pairs : Commute.audit;
  coverage : Commute.audit;
  dependence : Commute.audit option;
      (** {!Commute.audit_dependence} of the model checker's race
          relation; [None] when no [dependent] predicate was supplied *)
  lint_files : int;
  exported : int option;
      (** values the [exports] directories export; [None] when the
          unused-export rule did not run *)
  lint : Lint.finding list;  (** the source lint's findings, then the unused-export rule's *)
}

val run :
  ?table:(Renaming_sched.Op.t -> Footprint.t) ->
  ?dependent:(Renaming_sched.Op.t -> Renaming_sched.Op.t -> bool) ->
  ?lint_root:string option ->
  ?exports:Unused_export.config ->
  roster:(string * (unit -> Renaming_sched.Executor.instance)) list ->
  unit ->
  t
(** [table] defaults to the shipped {!Footprint.of_op}; [dependent] is
    the model checker's race relation (callers above lib/mcheck pass
    [Renaming_mcheck.Races.dependent]; omitting it skips that leg);
    [lint_root] defaults to [Some "lib"] ([None] skips the lint leg);
    [exports] runs {!Unused_export} over that layout (omitted: skipped). *)

val ok : t -> bool
(** No audit failures and no unwaived lint findings. *)

val pp : Format.formatter -> t -> unit

val to_json : t -> Renaming_obs.Json.t
