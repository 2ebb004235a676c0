type 'a entry = { e_time : float; e_seq : int; e_value : 'a }

type 'a t = {
  mutable data : 'a entry array;
  mutable size : int;
  mutable next_seq : int;
}

let create () = { data = [||]; size = 0; next_seq = 0 }

let less a b = a.e_time < b.e_time || (a.e_time = b.e_time && a.e_seq < b.e_seq)

let grow t entry =
  let cap = Array.length t.data in
  if t.size = cap then begin
    let ncap = max 16 (2 * cap) in
    let data = Array.make ncap entry in
    Array.blit t.data 0 data 0 t.size;
    t.data <- data
  end

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if less t.data.(i) t.data.(parent) then begin
      let tmp = t.data.(i) in
      t.data.(i) <- t.data.(parent);
      t.data.(parent) <- tmp;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.size && less t.data.(l) t.data.(!smallest) then smallest := l;
  if r < t.size && less t.data.(r) t.data.(!smallest) then smallest := r;
  if !smallest <> i then begin
    let tmp = t.data.(i) in
    t.data.(i) <- t.data.(!smallest);
    t.data.(!smallest) <- tmp;
    sift_down t !smallest
  end

let push t ~time value =
  let entry = { e_time = time; e_seq = t.next_seq; e_value = value } in
  t.next_seq <- t.next_seq + 1;
  grow t entry;
  t.data.(t.size) <- entry;
  t.size <- t.size + 1;
  sift_up t (t.size - 1)

let pop t =
  if t.size = 0 then None
  else begin
    let top = t.data.(0) in
    t.size <- t.size - 1;
    if t.size > 0 then begin
      t.data.(0) <- t.data.(t.size);
      sift_down t 0
    end;
    Some (top.e_time, top.e_value)
  end

(* The stored float is already boxed in its entry, so this allocates
   nothing. *)
let top_time t = if t.size = 0 then infinity else t.data.(0).e_time

let due t ~now = t.size > 0 && t.data.(0).e_time <= now

let size t = t.size

let is_empty t = t.size = 0

let compact t ~live =
  let j = ref 0 in
  for i = 0 to t.size - 1 do
    let e = t.data.(i) in
    if live ~time:e.e_time e.e_value then begin
      t.data.(!j) <- e;
      incr j
    end
  done;
  t.size <- !j;
  (* Floyd heapify: surviving entries keep their (time, seq) keys, so
     their relative pop order is unchanged. *)
  for i = (t.size / 2) - 1 downto 0 do
    sift_down t i
  done;
  (* Release the dead tail so week-long churn stays bounded. *)
  let cap = Array.length t.data in
  if cap > 16 && t.size * 4 < cap then begin
    let ncap = max 16 (2 * t.size) in
    let data = Array.sub t.data 0 ncap in
    t.data <- data
  end
