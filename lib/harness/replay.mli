(** The one lookup a repro artifact replays through. *)

val find : name:string -> n:int -> Renaming_faults.Target.t option
(** The target a repro's [algorithm] and [n] headers name: a chaos
    algorithm at [n] ({!Chaos.algorithms}), a model-checking roster
    entry or a fuzzing roster target.  The rosters share every instance
    they both run ({!Targets}), so a given [(name, n)] names one
    target, whichever checker wrote the artifact. *)
