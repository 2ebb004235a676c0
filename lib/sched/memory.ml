module Tas_array = Renaming_shm.Tas_array
module Tau_register = Renaming_device.Tau_register

type region = Names | Aux | Words | Device

type access = {
  acc_region : region;
  acc_idx : int;
  acc_write : bool;
  acc_pid_sensitive : bool;
}

let pp_access fmt a =
  Format.fprintf fmt "%s %s[%d]%s"
    (if a.acc_write then "write" else "read")
    (match a.acc_region with Names -> "names" | Aux -> "aux" | Words -> "words" | Device -> "tau")
    a.acc_idx
    (if a.acc_pid_sensitive then " (pid-sensitive)" else "")

type t = {
  names : Tas_array.t;
  aux : Tas_array.t;
  taus : Tau_register.t array;
  (* The τ-registers' answers, one per pid for all registers: a pid has
     at most one request outstanding, so its entry is [reg lsl 2 lor
     code] for its latest request, to register [reg], with [code] 0
     pending, 1 won and 2 lost; -1 before its first request. *)
  answers : int array;
  words : int array;  (* atomic read/write registers, init 0 *)
  (* τ-registers with queued requests, a stack of [n_dirty] indices, so
     a device tick only visits registers that actually have work. *)
  dirty : int array;
  mutable n_dirty : int;
  dirty_flag : bool array;
  (* Optional instrumentation: the static-analysis audit attaches a
     logger here and [apply] reports the concrete cells each executed
     operation read and wrote.  [None] (the default) costs one mutable
     field test per operation. *)
  mutable logger : (pid:int -> Op.t -> access list -> unit) option;
}

let create ~namespace ?(aux = 0) ?(words = 0) ?(taus = [||]) ?(processes = 0) () =
  {
    names = Tas_array.create namespace;
    aux = Tas_array.create aux;
    taus;
    answers = Array.make processes (-1);
    words = Array.make words 0;
    dirty = Array.make (Array.length taus) 0;
    n_dirty = 0;
    dirty_flag = Array.make (Array.length taus) false;
    logger = None;
  }

let names t = t.names
let aux t = t.aux
let words t = t.words

let namespace t = Tas_array.size t.names

let set_access_logger t logger = t.logger <- logger

let read region idx = { acc_region = region; acc_idx = idx; acc_write = false; acc_pid_sensitive = false }
let write region idx = { acc_region = region; acc_idx = idx; acc_write = true; acc_pid_sensitive = false }
let pid_sensitive a = { a with acc_pid_sensitive = true }

(* The concrete access set of one executed operation, reflecting what
   actually happened: a TAS that lost records no write, a release by a
   non-owner records no write.  Only computed when a logger is
   attached. *)
let accesses_of ~pid:_ (op : Op.t) (response : Op.response) =
  match (op, response) with
  | Tas_name i, Bool won ->
    read Names i :: (if won then [ pid_sensitive (write Names i) ] else [])
  | Tas_aux i, Bool won -> read Aux i :: (if won then [ pid_sensitive (write Aux i) ] else [])
  | Read_name i, _ -> [ read Names i ]
  | Read_aux i, _ -> [ read Aux i ]
  | Owned_name i, _ -> [ pid_sensitive (read Names i) ]
  | Release_name i, Bool released ->
    pid_sensitive (read Names i) :: (if released then [ write Names i ] else [])
  | Read_word i, _ -> [ read Words i ]
  | Write_word { idx; _ }, _ -> [ write Words idx ]
  | Yield, _ -> []
  | Tau_submit { reg; _ }, _ -> [ pid_sensitive (write Device reg) ]
  | Tau_poll reg, _ -> [ pid_sensitive (read Device reg) ]
  | (Tas_name _ | Tas_aux _ | Release_name _), _ ->
    (* [apply] below always answers these with [Bool]. *)
    assert false

(* Responses are constant constructors, allocated once statically, so
   executing an operation allocates no response. *)
let of_bool b : Op.response = if b then Bool true else Bool false

let pending reg = reg lsl 2
let won reg = (reg lsl 2) lor 1
let lost reg = (reg lsl 2) lor 2

(* A pid that never asked [reg], or has asked another register since,
   reads [Pending]; so does a pid outside [0, processes). *)
let poll t ~pid reg : Op.response =
  if pid < 0 || pid >= Array.length t.answers then Tau Pending
  else
    let answer = t.answers.(pid) in
    if answer = won reg then Tau Won_bit
    else if answer = lost reg then Tau Lost_bit
    else Tau Pending

let apply t ~pid (op : Op.t) : Op.response =
  let response : Op.response =
    match op with
    | Tas_name i -> of_bool (Tas_array.test_and_set t.names ~idx:i ~pid)
    | Tas_aux i -> of_bool (Tas_array.test_and_set t.aux ~idx:i ~pid)
    | Read_name i -> of_bool (Tas_array.is_set t.names i)
    | Read_aux i -> of_bool (Tas_array.is_set t.aux i)
    | Owned_name i -> of_bool (Tas_array.owner t.names i = Some pid)
    | Yield -> Unit
    | Tau_submit { reg; bit } ->
      if pid >= Array.length t.answers then
        invalid_arg "Memory.apply: Tau_submit from a pid beyond ~processes";
      Tau_register.submit t.taus.(reg) ~pid ~bit;
      t.answers.(pid) <- pending reg;
      if not t.dirty_flag.(reg) then begin
        t.dirty_flag.(reg) <- true;
        t.dirty.(t.n_dirty) <- reg;
        t.n_dirty <- t.n_dirty + 1
      end;
      Unit
    | Tau_poll reg -> poll t ~pid reg
    | Release_name i -> of_bool (Tas_array.release t.names ~idx:i ~pid)
    | Read_word i -> Value t.words.(i)
    | Write_word { idx; value } ->
      t.words.(idx) <- value;
      Unit
  in
  (match t.logger with
  | None -> ()
  | Some log -> log ~pid op (accesses_of ~pid op response));
  response

let tick_taus t =
  while t.n_dirty > 0 do
    let n = t.n_dirty - 1 in
    t.n_dirty <- n;
    let reg = t.dirty.(n) in
    t.dirty_flag.(reg) <- false;
    Tau_register.run_cycle t.taus.(reg) ~won:(won reg) ~lost:(lost reg) t.answers
  done

let assignment_of_returns t returns =
  Renaming_shm.Assignment.make ~namespace:(namespace t) returns
