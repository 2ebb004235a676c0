module Json = Renaming_obs.Json

type t = {
  pairs : Commute.audit;
  coverage : Commute.audit;
  dependence : Commute.audit option;
  lint_files : int;
  exported : int option;
  lint : Lint.finding list;
}

let run ?table ?dependent ?(lint_root = Some "lib") ?exports ~roster () =
  let pairs = Commute.audit_pairs ?table () in
  let coverage = Commute.audit_coverage ?table roster in
  let dependence =
    Option.map (fun dependent -> Commute.audit_dependence ?table ~dependent ()) dependent
  in
  let lint_files, lint =
    match lint_root with None -> (0, []) | Some root -> Lint.lint_dir root
  in
  let exports = Option.map Unused_export.run exports in
  let exported = Option.map (fun r -> r.Unused_export.exported) exports in
  let lint = lint @ Option.fold ~none:[] ~some:(fun r -> r.Unused_export.findings) exports in
  { pairs; coverage; dependence; lint_files; exported; lint }

let ok t =
  t.pairs.Commute.a_failures = []
  && t.coverage.Commute.a_failures = []
  && (match t.dependence with None -> true | Some a -> a.Commute.a_failures = [])
  && Lint.active t.lint = []

let pp fmt t =
  let audit_line name (a : Commute.audit) =
    Format.fprintf fmt "%-22s %8d checked %3d failures@ " name a.Commute.a_checked
      (List.length a.Commute.a_failures);
    List.iter (fun f -> Format.fprintf fmt "  %a@ " Commute.pp_failure f) a.Commute.a_failures
  in
  Format.fprintf fmt "@[<v>";
  audit_line "pairwise commutation" t.pairs;
  audit_line "footprint coverage" t.coverage;
  (match t.dependence with
  | Some a -> audit_line "dpor dependence" a
  | None -> Format.fprintf fmt "%-22s %8s skipped@ " "dpor dependence" "");
  Format.fprintf fmt "%-22s %8d files   %3d findings (%d waived)@ " "source lint" t.lint_files
    (List.length t.lint)
    (List.length t.lint - List.length (Lint.active t.lint));
  Option.iter (Format.fprintf fmt "%-22s %8d exported values@ " "unused-export") t.exported;
  List.iter (fun f -> Format.fprintf fmt "  %a@ " Lint.pp_finding f) t.lint;
  Format.fprintf fmt "verdict: %s@]" (if ok t then "ok" else "FAILED")

let audit_json (a : Commute.audit) =
  Json.Obj
    [
      ("checked", Json.Int a.Commute.a_checked);
      ( "failures",
        Json.List
          (List.map
             (fun (f : Commute.failure) ->
               Json.Obj
                 [
                   ("check", Json.String f.Commute.f_check);
                   ("detail", Json.String f.Commute.f_detail);
                 ])
             a.Commute.a_failures) );
    ]

let finding_json (f : Lint.finding) =
  Json.Obj
    [
      ("file", Json.String f.Lint.l_file);
      ("line", Json.Int f.Lint.l_line);
      ("rule", Json.String f.Lint.l_rule);
      ("message", Json.String f.Lint.l_message);
      ("waived", Json.Bool f.Lint.l_waived);
    ]

let to_json t =
  let active = List.length (Lint.active t.lint) in
  Json.Obj
    [
      ("ok", Json.Bool (ok t));
      ( "footprint",
        Json.Obj
          [
            ("pairs", audit_json t.pairs);
            ("coverage", audit_json t.coverage);
            ("dependence", Option.fold ~none:Json.Null ~some:audit_json t.dependence);
          ] );
      ( "lint",
        Json.Obj
          [
            ("files", Json.Int t.lint_files);
            ("active", Json.Int active);
            ("waived", Json.Int (List.length t.lint - active));
            ("findings", Json.List (List.map finding_json t.lint));
          ] );
    ]
