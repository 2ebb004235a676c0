(** The fuzzing roster: what [renaming fuzz] runs.

    Two halves:

    - {!clean}: small instances of real algorithms (loose-geometric,
      combined-geometric, uniform-probing, linear-scan) and of the
      service protocol models; all but combined-geometric are the
      {!Targets} the model-checking roster runs too.  The fuzzer
      must report zero violations here — any hit is a real bug (or a
      monitor blind spot) and fails the campaign.
    - {!mutants}: deliberately seeded schedule-depth bugs — a
      double-claim in the loose-geometric probe path, a τ-device
      over-admit, a dropped straggler in the Combined backup path,
      double grants in the lease, slice and dedup handoff protocols,
      and a post-reclaim re-grant only the spec can see
      ({!Renaming_refine.Grant_model.instance_regrant}).  Each is clean under the fair round-robin baseline and breaks only
      under a rare bounded-depth interleaving; the fuzzer {e must} find
      and shrink every one within its budget, or the campaign fails.
      This is the fuzzing analogue of
      [renaming analyze --inject broken-footprint]. *)


val mutants : unit -> Renaming_fuzz.Fuzz.target list

val roster : unit -> Renaming_fuzz.Fuzz.target list
(** [clean () @ mutants ()]. *)
