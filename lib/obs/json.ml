(* Minimal JSON tree with a deterministic emitter and a small
   validating parser.  The exporters build values with this module; the
   parser exists so the trace self-check (`renaming trace --check`) and
   the JSONL round-trip tests need no external JSON dependency. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* --- emission --- *)

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* JSON has no NaN/infinity; map them to null.  A float prints in the
   fewest of 15, 16 or 17 significant digits that read back to it, so a
   value rounded to a few decimals prints as those decimals.  "1." is
   not valid JSON and "1" would read back as an int, so integral floats
   are printed with an explicit fraction digit. *)
let float_repr f =
  if not (Float.is_finite f) then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else
    let s = Printf.sprintf "%.15g" f in
    if float_of_string s = f then s
    else
      let s = Printf.sprintf "%.16g" f in
      if float_of_string s = f then s else Printf.sprintf "%.17g" f

let fixed digits x = Float (float_of_string (Printf.sprintf "%.*f" digits x))

(* [xs] rendered by [f] between [opening] and [closing], [sep] apart. *)
let seq buf opening sep closing f xs =
  Buffer.add_string buf opening;
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_string buf sep;
      f x)
    xs;
  Buffer.add_string buf closing

(* A non-empty list [rows] levels down puts each item on a line of its
   own: [rows = 1] is a list value itself, [2] the lists a top-level
   object's fields hold; [0] breaks no line. *)
let rec emit ~rows buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Buffer.add_string buf (float_repr f)
  | String s ->
    Buffer.add_char buf '"';
    Buffer.add_string buf (escape s);
    Buffer.add_char buf '"'
  | List (_ :: _ as items) when rows = 1 -> seq buf "[\n" ",\n" "\n]" (emit ~rows:0 buf) items
  | List items -> seq buf "[" "," "]" (emit ~rows:0 buf) items
  | Obj fields ->
    seq buf "{" "," "}"
      (fun (k, v) ->
        emit ~rows:0 buf (String k);
        Buffer.add_char buf ':';
        emit ~rows:(rows - 1) buf v)
      fields

let to_string v =
  let buf = Buffer.create 1024 in
  emit ~rows:0 buf v;
  Buffer.contents buf

let to_document v =
  let buf = Buffer.create 4096 in
  emit ~rows:2 buf v;
  Buffer.add_char buf '\n';
  Buffer.contents buf

(* --- accessors --- *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_int = function Int i -> Some i | _ -> None
let to_str = function String s -> Some s | _ -> None
let to_items = function List l -> Some l | _ -> None

(* --- parsing --- *)

exception Parse_error of string

let parse_error pos msg = raise (Parse_error (Printf.sprintf "at offset %d: %s" pos msg))

let of_string s =
  let len = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < len then Some s.[!pos] else None in
  let advance () = incr pos in
  let expect c =
    match peek () with
    | Some d when d = c -> advance ()
    | _ -> parse_error !pos (Printf.sprintf "expected %C" c)
  in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let literal word value =
    let n = String.length word in
    if !pos + n <= len && String.sub s !pos n = word then begin
      pos := !pos + n;
      value
    end
    else parse_error !pos (Printf.sprintf "expected %s" word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= len then parse_error !pos "unterminated string";
      let c = s.[!pos] in
      advance ();
      if c = '"' then Buffer.contents buf
      else if c = '\\' then begin
        (if !pos >= len then parse_error !pos "unterminated escape");
        let e = s.[!pos] in
        advance ();
        (match e with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | 't' -> Buffer.add_char buf '\t'
        | 'u' ->
          if !pos + 4 > len then parse_error !pos "truncated \\u escape";
          let hex = String.sub s !pos 4 in
          pos := !pos + 4;
          let code =
            match int_of_string_opt ("0x" ^ hex) with
            | Some c -> c
            | None -> parse_error !pos "bad \\u escape"
          in
          (* Encode the code point as UTF-8 (surrogates are kept as-is
             bytes-wise; the exporters only emit ASCII). *)
          if code < 0x80 then Buffer.add_char buf (Char.chr code)
          else if code < 0x800 then begin
            Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
            Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
          end
          else begin
            Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
            Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
            Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
          end
        | c -> parse_error !pos (Printf.sprintf "bad escape \\%C" c));
        go ()
      end
      else begin
        Buffer.add_char buf c;
        go ()
      end
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      (c >= '0' && c <= '9') || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
    in
    while !pos < len && is_num_char s.[!pos] do
      advance ()
    done;
    let text = String.sub s start (!pos - start) in
    match int_of_string_opt text with
    | Some i -> Int i
    | None -> (
      match float_of_string_opt text with
      | Some f -> Float f
      | None -> parse_error start (Printf.sprintf "bad number %S" text))
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> parse_error !pos "unexpected end of input"
    | Some '"' -> String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        List []
      end
      else begin
        let items = ref [ parse_value () ] in
        skip_ws ();
        while peek () = Some ',' do
          advance ();
          items := parse_value () :: !items;
          skip_ws ()
        done;
        expect ']';
        List (List.rev !items)
      end
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let field () =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          (k, v)
        in
        let fields = ref [ field () ] in
        skip_ws ();
        while peek () = Some ',' do
          advance ();
          fields := field () :: !fields;
          skip_ws ()
        done;
        expect '}';
        Obj (List.rev !fields)
      end
    | Some _ -> parse_number ()
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> len then parse_error !pos "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse_error msg -> Error msg
