(* Source-level concurrency lint over the library tree, built on
   compiler-libs (the parser and Ast_iterator of the toolchain that
   compiles this very code, so there is no AST-version skew). *)

type finding = {
  l_file : string;
  l_line : int;
  l_rule : string;
  l_message : string;
  l_waived : bool;
}

(* --- waivers ---

   A finding is waived by an inline comment on the same line or the
   line above it:

     let t0 = Unix.gettimeofday () in  (* lint: allow wall-clock — benchmarking *)

   `lint: allow all` waives every rule on that line. *)

let waiver_rules line =
  let needle = "lint: allow " in
  let nlen = String.length needle in
  let len = String.length line in
  let rec find i =
    if i + nlen > len then None
    else if String.sub line i nlen = needle then Some (i + nlen)
    else find (i + 1)
  in
  match if String.contains line 'l' then find 0 else None with
  | None -> []
  | Some start ->
    let rest = String.sub line start (len - start) in
    let is_word_char c = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c = '-' || c = ',' in
    let stop = ref 0 in
    while !stop < String.length rest && (is_word_char rest.[!stop] || rest.[!stop] = ' ') do
      incr stop
    done;
    let listed = String.sub rest 0 !stop in
    List.concat_map (String.split_on_char ',') (String.split_on_char ' ' listed)
    |> List.filter (fun s -> s <> "")

let waiver_mentions ~rule line =
  let items = waiver_rules line in
  List.mem rule items || List.mem "all" items

let is_waived ~lines ~rule ~line =
  let mentions n = n >= 1 && n <= Array.length lines && waiver_mentions ~rule lines.(n - 1) in
  mentions line || mentions (line - 1)

(* --- identifier classification --- *)

let rec path_of (lid : Longident.t) =
  match lid with
  | Longident.Lident s -> [ s ]
  | Longident.Ldot (l, s) -> path_of l @ [ s ]
  | Longident.Lapply _ -> []

let normalize = function "Stdlib" :: rest -> rest | path -> path

let ident_rule ~whitelisted ~print_whitelisted lid =
  match normalize (path_of lid) with
  | "Obj" :: _ -> Some ("obj-magic", "use of Obj")
  | "Random" :: _ -> Some ("nondeterministic-rng", "use of Random")
  | [ "Unix"; ("gettimeofday" | "time" | "localtime" | "gmtime" | "mktime") ] | [ "Sys"; "time" ]
    ->
    Some ("wall-clock", "wall-clock read")
  | [ "Unix"; ("sleep" | "sleepf") ] -> Some ("blocking-sleep", "blocking sleep")
  | [ "Hashtbl"; ("hash" | "seeded_hash" | "hash_param") ] ->
    Some ("unstable-hash", "version-unstable Hashtbl.hash")
  | "Atomic" :: _ when not whitelisted -> Some ("atomic-outside-shm", "use of Atomic")
  | ( [ ("Printf" | "Format"); ("printf" | "eprintf") ]
    | [ "Format"; ("print_string" | "print_newline") ]
    | [
        ( "print_endline" | "print_string" | "print_newline" | "print_char" | "print_int"
        | "print_float" | "prerr_endline" | "prerr_string" | "prerr_newline" );
      ] )
    when not print_whitelisted ->
    Some ("stdout-print", "direct stdout/stderr print in library code")
  | _ -> None

(* Does a module-level binding's right-hand side immediately allocate
   mutable state?  Chase let/sequence/constraint wrappers to the head
   application; a [fun] head means the binding is a function and the
   allocation happens per call, which is fine. *)
let rec allocates_mutable (e : Parsetree.expression) =
  match e.Parsetree.pexp_desc with
  | Parsetree.Pexp_let (_, _, body) | Parsetree.Pexp_sequence (_, body) -> allocates_mutable body
  | Parsetree.Pexp_constraint (e, _) | Parsetree.Pexp_open (_, e) -> allocates_mutable e
  | Parsetree.Pexp_apply (f, _) -> (
    match f.Parsetree.pexp_desc with
    | Parsetree.Pexp_ident { txt; _ } -> (
      match normalize (path_of txt) with
      | [ "ref" ]
      | [ "Atomic"; "make" ]
      | [ ("Hashtbl" | "Queue" | "Stack" | "Buffer"); "create" ]
      | [ "Array"; ("make" | "create_float" | "make_matrix") ]
      | [ "Bytes"; ("make" | "create") ] ->
        true
      | _ -> false)
    | _ -> false)
  | _ -> false

(* --- the walk --- *)

let lint_source ~whitelisted ~print_whitelisted ~path contents =
  let findings = ref [] in
  let lines = Array.of_list (String.split_on_char '\n' contents) in
  let add ~(loc : Location.t) rule message =
    let line = loc.Location.loc_start.Lexing.pos_lnum in
    findings :=
      {
        l_file = path;
        l_line = line;
        l_rule = rule;
        l_message = message;
        l_waived = is_waived ~lines ~rule ~line;
      }
      :: !findings
  in
  match
    let lexbuf = Lexing.from_string contents in
    Lexing.set_filename lexbuf path;
    Parse.implementation lexbuf
  with
  | exception _ ->
    [ { l_file = path; l_line = 1; l_rule = "parse-error"; l_message = "unparseable"; l_waived = false } ]
  | structure ->
    let expr_iter (it : Ast_iterator.iterator) (e : Parsetree.expression) =
      (match e.Parsetree.pexp_desc with
      | Parsetree.Pexp_ident { txt; loc } -> (
        match ident_rule ~whitelisted ~print_whitelisted txt with
        | Some (rule, message) -> add ~loc rule message
        | None -> ())
      | _ -> ());
      Ast_iterator.default_iterator.Ast_iterator.expr it e
    in
    (* Module-level bindings only: a ref inside a function body is
       per-call state, not shared state. *)
    let structure_item_iter (it : Ast_iterator.iterator) (si : Parsetree.structure_item) =
      (match si.Parsetree.pstr_desc with
      | Parsetree.Pstr_value (_, bindings) ->
        List.iter
          (fun (vb : Parsetree.value_binding) ->
            if allocates_mutable vb.Parsetree.pvb_expr then
              add ~loc:vb.Parsetree.pvb_loc "global-mutable"
                "module-level mutable state allocated at load time")
          bindings
      | _ -> ());
      Ast_iterator.default_iterator.Ast_iterator.structure_item it si
    in
    let iterator =
      { Ast_iterator.default_iterator with Ast_iterator.expr = expr_iter; structure_item = structure_item_iter }
    in
    iterator.Ast_iterator.structure iterator structure;
    List.rev !findings

(* --- filesystem walk --- *)

let default_whitelist = [ "concurrent"; "shm" ]

(* Directories whose job is rendering output for the bin/ edge: the obs
   exporters may talk to channels, everything else returns data. *)
let default_print_whitelist = [ "obs" ]

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let lint_file ?(whitelist = default_whitelist) ?(print_whitelist = default_print_whitelist) path
    =
  let dir = Filename.basename (Filename.dirname path) in
  let whitelisted = List.mem dir whitelist in
  let print_whitelisted = List.mem dir print_whitelist in
  lint_source ~whitelisted ~print_whitelisted ~path (read_file path)

let rec files ?(hidden = false) dir =
  let entries = Sys.readdir dir in
  Array.sort compare entries;
  List.concat_map
    (fun entry ->
      let path = Filename.concat dir entry in
      if not (Sys.is_directory path) then [ path ]
      else if entry = "_build" || ((not hidden) && entry.[0] = '.') then []
      else files ~hidden path)
    (Array.to_list entries)

let lint_dir ?whitelist ?print_whitelist root =
  let files = List.filter (fun f -> Filename.check_suffix f ".ml") (files root) in
  (List.length files, List.concat_map (lint_file ?whitelist ?print_whitelist) files)

let active findings = List.filter (fun f -> not f.l_waived) findings

let pp_finding fmt f =
  Format.fprintf fmt "%s:%d: [%s] %s%s" f.l_file f.l_line f.l_rule f.l_message
    (if f.l_waived then " (waived)" else "")
