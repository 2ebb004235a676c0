(* The unused-export rule, over the typed trees dune writes.  A use is
   matched to its declaration through the [val_loc] the type checker
   stamped on the value, never through a name. *)

type config = {
  src_root : string;
  build_root : string;
  exports : string list;
  users : string list;
  tests : string list;
}

let default =
  {
    src_root = ".";
    build_root = "_build/default";
    exports = [ "lib" ];
    users = [ "lib"; "bin"; "e2e_bench"; "examples" ];
    tests = [ "test"; "e2e_bench/test" ];
  }

type report = { exported : int; findings : Lint.finding list }

let rule = "unused-export"

(* --- the two trees --- *)

let join root path = if root = "." then path else Filename.concat root path

(* [path] relative to [root], which it starts with. *)
let relative ~root path =
  if root = "." then path
  else
    let n = String.length root + 1 in
    String.sub path n (String.length path - n)

(* Every .ml/.mli under the scanned directories, relative to the
   source root. *)
let sources cfg =
  List.sort_uniq compare (cfg.exports @ cfg.users @ cfg.tests)
  |> List.concat_map (fun dir -> Lint.files (join cfg.src_root dir))
  |> List.filter (fun f -> Filename.check_suffix f ".ml" || Filename.check_suffix f ".mli")
  |> List.map (relative ~root:cfg.src_root)
  |> List.sort_uniq compare

(* Every typed unit under the scanned build directories, keyed by the
   source file it was compiled from (relative to the build root). *)
let units cfg =
  let table = Hashtbl.create 512 in
  List.sort_uniq compare (cfg.exports @ cfg.users @ cfg.tests)
  |> List.concat_map (fun dir -> Lint.files ~hidden:true (join cfg.build_root dir))
  |> List.iter (fun f ->
         if Filename.check_suffix f ".cmt" || Filename.check_suffix f ".cmti" then
           let cmt = Cmt_format.read_cmt f in
           Option.iter (fun src -> Hashtbl.replace table src cmt) cmt.Cmt_format.cmt_sourcefile);
  table

let finding ~file ~line ~waived message =
  { Lint.l_file = file; l_line = line; l_rule = rule; l_message = message; l_waived = waived }

(* --- declarations --- *)

type export = { e_name : string; e_file : string; e_line : int }

let key (loc : Location.t) =
  (loc.Location.loc_start.Lexing.pos_fname, loc.Location.loc_start.Lexing.pos_cnum)

(* The values a signature exports, nested module signatures included. *)
let rec signature_values prefix (sg : Types.signature) =
  List.concat_map
    (function
      | Types.Sig_value (id, vd, _) -> [ (prefix ^ Ident.name id, vd.Types.val_loc) ]
      | Types.Sig_module (id, _, md, _, _) ->
        module_values (prefix ^ Ident.name id ^ ".") md.Types.md_type
      | _ -> [])
    sg

and module_values prefix = function
  | Types.Mty_signature sg -> signature_values prefix sg
  | _ -> []

let module_name file =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename file))

(* The exports of one source: its interface if it has one, else its
   implementation. *)
let exports_of ~file (cmt : Cmt_format.cmt_infos) =
  let sg =
    match cmt.Cmt_format.cmt_annots with
    | Cmt_format.Interface s -> s.Typedtree.sig_type
    | Cmt_format.Implementation s -> s.Typedtree.str_type
    | _ -> []
  in
  List.map
    (fun (name, (loc : Location.t)) ->
      let e_line = loc.Location.loc_start.Lexing.pos_lnum in
      (key loc, { e_name = module_name file ^ "." ^ name; e_file = file; e_line }))
    (signature_values "" sg)

(* --- uses --- *)

(* The declarations an implementation uses: every identifier and
   binding operator by its [val_loc], and every value of a module it
   passes on whole (a functor argument, a first-class module, an
   [include]). *)
let uses_of (str : Typedtree.structure) =
  let acc = ref [] in
  let use (vd : Types.value_description) = acc := key vd.Types.val_loc :: !acc in
  let whole (me : Typedtree.module_expr) =
    List.iter (fun (_, loc) -> acc := key loc :: !acc) (module_values "" me.Typedtree.mod_type)
  in
  let open Tast_iterator in
  let expr it (e : Typedtree.expression) =
    (match e.Typedtree.exp_desc with
    | Typedtree.Texp_ident (_, _, vd) -> use vd
    | Typedtree.Texp_letop { let_; ands; _ } ->
      List.iter (fun (b : Typedtree.binding_op) -> use b.Typedtree.bop_op_val) (let_ :: ands)
    | Typedtree.Texp_pack me -> whole me
    | _ -> ());
    default_iterator.expr it e
  in
  let module_expr it (me : Typedtree.module_expr) =
    (match me.Typedtree.mod_desc with Typedtree.Tmod_apply (_, arg, _) -> whole arg | _ -> ());
    default_iterator.module_expr it me
  in
  let structure_item it (si : Typedtree.structure_item) =
    (match si.Typedtree.str_desc with
    | Typedtree.Tstr_include incl -> whole incl.Typedtree.incl_mod
    | _ -> ());
    default_iterator.structure_item it si
  in
  let it = { default_iterator with expr; module_expr; structure_item } in
  it.structure it str;
  !acc

(* --- the rule --- *)

let under dirs file = List.exists (fun d -> String.starts_with ~prefix:(d ^ "/") file) dirs

let read_lines path =
  match In_channel.with_open_bin path In_channel.input_all with
  | contents -> Array.of_list (String.split_on_char '\n' contents)
  | exception Sys_error _ -> [||]

let run cfg =
  let sources = sources cfg in
  let units = units cfg in
  (* No silent pass: every scanned source must have a unit compiled
     from exactly the text in the tree. *)
  let stale =
    List.filter_map
      (fun file ->
        let message =
          match Hashtbl.find_opt units file with
          | None -> Some "no compiled unit; run `dune build @check`"
          | Some cmt ->
            let digest = Digest.file (join cfg.src_root file) in
            if cmt.Cmt_format.cmt_source_digest = Some digest then None
            else Some "compiled unit is stale; run `dune build @check`"
        in
        Option.map (finding ~file ~line:1 ~waived:false) message)
      sources
  in
  if stale <> [] then { exported = 0; findings = stale }
  else
    let exports =
      List.concat_map
        (fun file ->
          if under cfg.exports file
             && (Filename.check_suffix file ".mli" || not (List.mem (file ^ "i") sources))
          then exports_of ~file (Hashtbl.find units file)
          else [])
        sources
    in
    (* Who uses each declaration: a [`User] use beats a [`Test] one,
       and a use from the declaring module's own files does not count. *)
    let users = Hashtbl.create 1024 in
    List.iter
      (fun file ->
        match (Hashtbl.find units file).Cmt_format.cmt_annots with
        | Cmt_format.Implementation str ->
          let kind = if under cfg.tests file then `Test else `User in
          let own = Filename.remove_extension file in
          List.iter
            (fun ((decl, _) as k) ->
              if Filename.remove_extension decl <> own && Hashtbl.find_opt users k <> Some `User
              then Hashtbl.replace users k kind)
            (uses_of str)
        | _ -> ())
      sources;
    let findings =
      List.filter_map
        (fun (k, e) ->
          let message =
            match Hashtbl.find_opt users k with
            | Some `User -> None
            | Some `Test -> Some (Printf.sprintf "%s is used only by tests" e.e_name)
            | None -> Some (Printf.sprintf "%s is used nowhere outside its own module" e.e_name)
          in
          let lines = read_lines (join cfg.src_root e.e_file) in
          let waived = Lint.is_waived ~lines ~rule ~line:e.e_line in
          Option.map (finding ~file:e.e_file ~line:e.e_line ~waived) message)
        exports
    in
    (* A waiver outlives its reason once its export is gone or has
       gained a caller: a waiver for this rule that no finding on its
       own line or the next one matches is a finding no waiver excuses. *)
    let stale =
      List.concat_map
        (fun file ->
          if not (under cfg.exports file) then []
          else
            let matched line =
              List.exists
                (fun (f : Lint.finding) ->
                  f.Lint.l_file = file && (f.Lint.l_line = line || f.Lint.l_line = line + 1))
                findings
            in
            read_lines (join cfg.src_root file)
            |> Array.to_list
            |> List.mapi (fun i text -> (i + 1, text))
            |> List.filter_map (fun (line, text) ->
                   if List.mem rule (Lint.waiver_rules text) && not (matched line) then
                     Some (finding ~file ~line ~waived:false "waiver matches no finding")
                   else None))
        sources
    in
    { exported = List.length exports; findings = findings @ stale }
