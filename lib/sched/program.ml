type 'a t =
  | Done of 'a
  | Step of Op.t * (Op.response -> 'a t)

let return v = Done v

let rec bind p f =
  match p with
  | Done v -> f v
  | Step (op, k) -> Step (op, fun resp -> bind (k resp) f)

module Syntax = struct
  let ( let* ) = bind
end

let bad_response op resp =
  Format.kasprintf failwith "Program: operation %a got response %a" Op.pp op Op.pp_response resp

(* [Done true] and [Done false] are static constants, so a Bool answer
   allocates nothing. *)
let bool_op op =
  Step
    ( op,
      function
      | Op.Bool true -> Done true
      | Op.Bool false -> Done false
      | resp -> bad_response op resp )

let tas_name i = bool_op (Op.Tas_name i)
let tas_aux i = bool_op (Op.Tas_aux i)
let read_name i = bool_op (Op.Read_name i)
let owned_name i = bool_op (Op.Owned_name i)

let yield =
  Step
    ( Op.Yield,
      function
      | Op.Unit -> Done ()
      | resp -> bad_response Op.Yield resp )

(* Fault-aware variants: [Ok b] on a normal response, [Error `Faulted]
   when the injected-fault layer ate the operation. *)
let try_bool_op op =
  Step
    ( op,
      function
      | Op.Bool b -> Done (Ok b)
      | Op.Faulted -> Done (Error `Faulted)
      | resp -> bad_response op resp )

let try_tas_aux i = try_bool_op (Op.Tas_aux i)

let read_word i =
  let op = Op.Read_word i in
  Step
    ( op,
      function
      | Op.Value v -> Done v
      | resp -> bad_response op resp )

let write_word ~idx ~value =
  let op = Op.Write_word { idx; value } in
  Step
    ( op,
      function
      | Op.Unit -> Done ()
      | resp -> bad_response op resp )

let tau_submit ~reg ~bit =
  let op = Op.Tau_submit { reg; bit } in
  Step
    ( op,
      function
      | Op.Unit -> Done ()
      | resp -> bad_response op resp )

let tau_poll reg =
  let op = Op.Tau_poll reg in
  Step
    ( op,
      function
      | Op.Tau a -> Done a
      | resp -> bad_response op resp )

let scan_names ~first ~count =
  let open Syntax in
  let rec loop k =
    if k >= count then return None
    else
      let* won = tas_name (first + k) in
      if won then return (Some (first + k)) else loop (k + 1)
  in
  loop 0

let recover_owned ~namespace =
  let open Syntax in
  let rec loop i =
    if i >= namespace then return None
    else
      let* mine = owned_name i in
      if mine then return (Some i) else loop (i + 1)
  in
  loop 0

let run_local p =
  match p with
  | Done v -> Some v
  | Step _ -> None
