(* Struct of arrays: entry [i] is [times.(i)], [seqs.(i)], [auxs.(i)] and
   [values.(i)].  Times live unboxed in a [Float.Array], and no float
   crosses a function call on the way through a sift, so none is boxed. *)
type 'a t = {
  mutable times : Float.Array.t;
  mutable seqs : int array;
  mutable auxs : int array;
  mutable values : 'a array;
  mutable size : int;
  mutable next_seq : int;
}

let create () =
  { times = Float.Array.create 0; seqs = [||]; auxs = [||]; values = [||]; size = 0;
    next_seq = 0 }

(* Entry [i] sorts before entry [j].  Indices here and in [move] are
   below [Array.length t.values], the length of every column. *)
let[@inline] less t i j =
  let ti = Float.Array.unsafe_get t.times i and tj = Float.Array.unsafe_get t.times j in
  ti < tj || (ti = tj && Array.unsafe_get t.seqs i < Array.unsafe_get t.seqs j)

let[@inline] move t ~src ~dst =
  Float.Array.unsafe_set t.times dst (Float.Array.unsafe_get t.times src);
  Array.unsafe_set t.seqs dst (Array.unsafe_get t.seqs src);
  Array.unsafe_set t.auxs dst (Array.unsafe_get t.auxs src);
  Array.unsafe_set t.values dst (Array.unsafe_get t.values src)

(* Lift entry [src] out, move every ancestor of position [hole] that
   sorts after it down one level, and put the entry in the hole left. *)
let sift_up t ~src hole =
  let time = Float.Array.unsafe_get t.times src
  and seq = Array.unsafe_get t.seqs src
  and aux = Array.unsafe_get t.auxs src
  and value = Array.unsafe_get t.values src in
  let hole = ref hole and continue_ = ref true in
  while !continue_ && !hole > 0 do
    let parent = (!hole - 1) / 2 in
    let tp = Float.Array.unsafe_get t.times parent in
    if time < tp || (time = tp && seq < Array.unsafe_get t.seqs parent) then begin
      move t ~src:parent ~dst:!hole;
      hole := parent
    end
    else continue_ := false
  done;
  if !hole <> src then begin
    Float.Array.unsafe_set t.times !hole time;
    Array.unsafe_set t.seqs !hole seq;
    Array.unsafe_set t.auxs !hole aux;
    Array.unsafe_set t.values !hole value
  end

(* Empty position [i] by walking the hole down to a leaf along the
   smaller child, one move a level; the caller then fills it with
   [sift_up].  An entry taken from the bottom rarely rises far, so this
   needs about half the comparisons of sifting it down from [i]. *)
let hole_to_leaf t i =
  let hole = ref i and l = ref ((2 * i) + 1) in
  while !l < t.size do
    let c = if !l + 1 < t.size && less t (!l + 1) !l then !l + 1 else !l in
    move t ~src:c ~dst:!hole;
    hole := c;
    l := (2 * c) + 1
  done;
  !hole

(* Resize every column to [cap]; [filler] pads the value column. *)
let resize t cap filler =
  let times = Float.Array.create cap in
  Float.Array.blit t.times 0 times 0 t.size;
  let seqs = Array.make cap 0 and auxs = Array.make cap 0 in
  Array.blit t.seqs 0 seqs 0 t.size;
  Array.blit t.auxs 0 auxs 0 t.size;
  let values = Array.make cap filler in
  Array.blit t.values 0 values 0 t.size;
  t.times <- times;
  t.seqs <- seqs;
  t.auxs <- auxs;
  t.values <- values

(* Make room for an entry at position [t.size], whose time the caller
   then writes before calling [place]. *)
let reserve t value = if t.size = Array.length t.values then resize t (max 16 (2 * t.size)) value

let place t ~aux value =
  let i = t.size in
  t.seqs.(i) <- t.next_seq;
  t.auxs.(i) <- aux;
  t.values.(i) <- value;
  t.next_seq <- t.next_seq + 1;
  t.size <- i + 1;
  sift_up t ~src:i i

let push t ~time ~aux value =
  reserve t value;
  Float.Array.set t.times t.size time;
  place t ~aux value

let push_cell t cells i ~aux value =
  reserve t value;
  Float.Array.set t.times t.size (Float.Array.get cells i);
  place t ~aux value

(* The sum goes straight into the column and is compared there: bound
   to a variable, it would be boxed. *)
let push_after t ~now ~delay ~aux value =
  reserve t value;
  let i = t.size in
  Float.Array.set t.times i (now +. delay);
  if not (Float.Array.get t.times i >= now) then Float.Array.set t.times i now;
  place t ~aux value

let take t =
  if t.size = 0 then invalid_arg "Heap.take: empty heap";
  let value = t.values.(0) in
  let last = t.size - 1 in
  t.size <- last;
  if last > 0 then sift_up t ~src:last (hole_to_leaf t 0);
  value

let top_time t = if t.size = 0 then infinity else Float.Array.get t.times 0

let top_aux t =
  if t.size = 0 then invalid_arg "Heap.top_aux: empty heap";
  t.auxs.(0)

let due t ~now = t.size > 0 && Float.Array.get t.times 0 <= now

let due_before t ~now ~seq = due t ~now && t.seqs.(0) < seq

let top_after t ~now = t.size > 0 && Float.Array.get t.times 0 > now

let top_le a b =
  b.size = 0 || (a.size > 0 && Float.Array.get a.times 0 <= Float.Array.get b.times 0)

let pushed t = t.next_seq

let size t = t.size

let is_empty t = t.size = 0

let compact t ~live =
  let j = ref 0 in
  for i = 0 to t.size - 1 do
    if live ~time:(Float.Array.get t.times i) ~aux:t.auxs.(i) t.values.(i) then begin
      if !j <> i then move t ~src:i ~dst:!j;
      incr j
    end
  done;
  t.size <- !j;
  (* Re-heapify by inserting each survivor into the heap of those before
     it: they keep their (time, seq) keys, so their relative take order
     is unchanged. *)
  for i = 1 to t.size - 1 do
    sift_up t ~src:i i
  done;
  (* Release the dead tail so week-long churn stays bounded, but keep
     room for the owner to refill: the lease table compacts whenever dead
     entries outnumber the live ones (and the heap holds more than 32),
     and columns shrunk to fit the survivors would be regrown at once. *)
  let cap = Array.length t.values and keep = max 64 (4 * t.size) in
  if cap > 2 * keep then resize t keep t.values.(0)
