module Target = Renaming_faults.Target

let find ~name ~n =
  List.find_opt
    (fun (t : Target.t) -> String.equal t.name name && t.n = n)
    (Chaos.algorithms ~n
    @ List.map (fun e -> e.Mcheck_roster.e_target) (Mcheck_roster.roster ())
    @ List.map (fun t -> t.Renaming_fuzz.Fuzz.fz_target) (Fuzz_roster.roster ()))
