(** The experiment registry: every table and figure of EXPERIMENTS.md,
    addressable by id from the CLI (`renaming run`). *)

type entry = {
  id : string;  (** "T1", "F2", ... *)
  title : string;
  claim : string;  (** the paper statement being reproduced *)
  run : Runcfg.scale -> Table.t;
}

val all : entry list

val find : string -> entry option
(** Case-insensitive lookup by id. *)
