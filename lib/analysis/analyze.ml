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

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let audit_json (a : Commute.audit) =
  Printf.sprintf "{\"checked\":%d,\"failures\":[%s]}" a.Commute.a_checked
    (String.concat ","
       (List.map
          (fun (f : Commute.failure) ->
            Printf.sprintf "{\"check\":\"%s\",\"detail\":\"%s\"}" (json_escape f.Commute.f_check)
              (json_escape f.Commute.f_detail))
          a.Commute.a_failures))

let finding_json (f : Lint.finding) =
  Printf.sprintf "{\"file\":\"%s\",\"line\":%d,\"rule\":\"%s\",\"message\":\"%s\",\"waived\":%b}"
    (json_escape f.Lint.l_file) f.Lint.l_line (json_escape f.Lint.l_rule)
    (json_escape f.Lint.l_message) f.Lint.l_waived

let to_json t =
  Printf.sprintf
    "{\"ok\":%b,\"footprint\":{\"pairs\":%s,\"coverage\":%s,\"dependence\":%s},\"lint\":{\"files\":%d,\"active\":%d,\"waived\":%d,\"findings\":[%s]}}"
    (ok t) (audit_json t.pairs) (audit_json t.coverage)
    (match t.dependence with None -> "null" | Some a -> audit_json a)
    t.lint_files
    (List.length (Lint.active t.lint))
    (List.length t.lint - List.length (Lint.active t.lint))
    (String.concat "," (List.map finding_json t.lint))
