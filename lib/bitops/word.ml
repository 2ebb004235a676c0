type t = int

let max_width = 62

let mask ~width =
  if width < 1 || width > max_width then invalid_arg "Word.mask: width out of range";
  (1 lsl width) - 1

let popcount w =
  let rec go acc w = if w = 0 then acc else go (acc + 1) (w land (w - 1)) in
  go 0 w

let test_bit w i = (w lsr i) land 1 = 1

let set_bit w i = w lor (1 lsl i)


let shift_left ~width w k = if k >= width then 0 else (w lsl k) land mask ~width

let shift_right ~width w k =
  ignore width;
  if k >= Sys.int_size then 0 else w lsr k

let logxor = ( lxor )
let logor = ( lor )
let logand = ( land )

let keep_lowest w k =
  let rec go acc w k = if k = 0 || w = 0 then acc else go (acc lor (w land -w)) (w land (w - 1)) (k - 1) in
  go 0 w k

let pp ~width fmt w =
  for i = width - 1 downto 0 do
    Format.pp_print_char fmt (if test_bit w i then '1' else '0')
  done
