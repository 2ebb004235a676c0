type 'a t = { mutable data : 'a array; mutable len : int }

let create () = { data = [||]; len = 0 }

let grow t x =
  let cap = Array.length t.data in
  let ncap = if cap = 0 then 16 else cap * 2 in
  let ndata = Array.make ncap x in
  Array.blit t.data 0 ndata 0 t.len;
  t.data <- ndata

let add_last t x =
  if t.len = Array.length t.data then grow t x;
  t.data.(t.len) <- x;
  t.len <- t.len + 1

let to_array t = Array.sub t.data 0 t.len
