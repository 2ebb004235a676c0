type comparator = { top : int; bottom : int }

type layer = comparator array

type t = { width : int; layers : layer array }

let validate_layer ~width layer =
  let used = Array.make width false in
  Array.iter
    (fun { top; bottom } ->
      if top < 0 || bottom >= width || top >= bottom then
        invalid_arg "Network.create: bad comparator";
      if used.(top) || used.(bottom) then
        invalid_arg "Network.create: wire used twice in one layer";
      used.(top) <- true;
      used.(bottom) <- true)
    layer

let create ~width layers =
  if width < 1 then invalid_arg "Network.create: width must be >= 1";
  List.iter (validate_layer ~width) layers;
  { width; layers = Array.of_list layers }

let width t = t.width
let depth t = Array.length t.layers
let size t = Array.fold_left (fun acc l -> acc + Array.length l) 0 t.layers
let layers t = t.layers

let apply_in_place t values ~cmp =
  if Array.length values <> t.width then invalid_arg "Network.apply: wrong input width";
  Array.iter
    (fun layer ->
      Array.iter
        (fun { top; bottom } ->
          if cmp values.(top) values.(bottom) > 0 then begin
            let tmp = values.(top) in
            values.(top) <- values.(bottom);
            values.(bottom) <- tmp
          end)
        layer)
    t.layers

let apply t values ~cmp =
  let copy = Array.copy values in
  apply_in_place t copy ~cmp;
  copy

let is_sorted values =
  let ok = ref true in
  for i = 0 to Array.length values - 2 do
    if values.(i) > values.(i + 1) then ok := false
  done;
  !ok

let sorts t =
  (* 0-1 principle: a network sorts every input iff it sorts every 0-1
     input. *)
  if t.width > 24 then invalid_arg "Network.sorts: width too large for exhaustive check";
  let ok = ref true in
  let input = Array.make t.width 0 in
  for pattern = 0 to (1 lsl t.width) - 1 do
    if !ok then begin
      for i = 0 to t.width - 1 do
        input.(i) <- (pattern lsr i) land 1
      done;
      if not (is_sorted (apply t input ~cmp:compare)) then ok := false
    end
  done;
  !ok
