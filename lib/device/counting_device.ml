module Word = Renaming_bitops.Word

type discard_rule = Literal | Reference

type t = {
  rule : discard_rule;
  width : int;
  threshold : int;
  mutable in_reg : Word.t;
  mutable out_reg : Word.t;
  mutable cycles : int;
  mutable prev_out : Word.t;  (* for the monotonicity invariant *)
}

let create ?(rule = Literal) ~width ~threshold () =
  if width < 1 || width > Word.max_width then invalid_arg "Counting_device.create: bad width";
  if threshold < 1 || threshold > width then invalid_arg "Counting_device.create: bad threshold";
  { rule; width; threshold; in_reg = 0; out_reg = 0; cycles = 0; prev_out = 0 }

let width t = t.width
let in_reg t = t.in_reg
let out_reg t = t.out_reg
let accepted_count t = Word.popcount t.out_reg
let remaining_capacity t = t.threshold - accepted_count t
let is_full t = remaining_capacity t = 0
let cycles t = t.cycles

type outcome = Lost | Confirmed | Revoked

(* Lines 5–12 of the paper: shift util_reg_0 left until exactly
   [allowed] new bits survive with a 1-bit in the most significant
   position; shifting back yields the surviving new bits.  Because the
   hardware shift drops bits at the register boundary, this keeps the
   [allowed] lowest-indexed new bits. *)
let literal_survivors ~width ~allowed util0 =
  if allowed = 0 then 0
  else begin
    let rec search k =
      if k >= width then
        (* Unreachable when 0 < allowed <= popcount util0: popcount
           decreases by at most one per extra shift and the top bit is
           eventually flush with the register boundary. *)
        invalid_arg "Counting_device: literal discard found no shift"
      else begin
        let v = Word.shift_left ~width util0 k in
        if Word.popcount v = allowed && Word.test_bit v (width - 1) then Word.shift_right ~width v k
        else search (k + 1)
      end
    in
    search 0
  end

let reference_survivors ~width:_ ~allowed util0 = Word.keep_lowest util0 allowed

(* Verdict codes [cycle] writes over its requests.  During lines 2–3 an
   entry holds its bit (a preliminary win) or [lost]; lines 4–14 then
   turn each preliminary win into [confirmed] or [revoked]. *)
let lost = -1
let confirmed = -2
let revoked = -3

let cycle t bits count =
  if count < 0 || count > Array.length bits then invalid_arg "Counting_device.cycle: bad count";
  t.prev_out <- t.out_reg;
  (* Line 1: capacity left this cycle. *)
  let allowed_bits = t.threshold - Word.popcount t.in_reg in
  (* Lines 2–3: concurrent TAS on the in_reg bits; first requester of a
     free bit preliminarily wins, all others lose. *)
  for i = 0 to count - 1 do
    let bit = bits.(i) in
    if bit < 0 || bit >= t.width then invalid_arg "Counting_device.cycle: bit out of range";
    if Word.test_bit t.in_reg bit then bits.(i) <- lost else t.in_reg <- Word.set_bit t.in_reg bit
  done;
  (* Lines 4–14: unset supernumerary new bits if τ is exceeded. *)
  if Word.popcount t.in_reg > t.threshold then begin
    let util0 = Word.logxor t.out_reg t.in_reg in
    let survivors =
      match t.rule with
      | Literal -> literal_survivors ~width:t.width ~allowed:allowed_bits util0
      | Reference -> reference_survivors ~width:t.width ~allowed:allowed_bits util0
    in
    t.out_reg <- Word.logor t.out_reg survivors;
    t.in_reg <- t.out_reg
  end
  else t.out_reg <- t.in_reg;
  for i = 0 to count - 1 do
    let bit = bits.(i) in
    if bit >= 0 then bits.(i) <- (if Word.test_bit t.out_reg bit then confirmed else revoked)
  done;
  t.cycles <- t.cycles + 1

let tick t ~requests =
  let bits = Array.map snd requests in
  cycle t bits (Array.length bits);
  Array.map (fun v -> if v = confirmed then Confirmed else if v = revoked then Revoked else Lost) bits

let check_invariants t =
  if accepted_count t > t.threshold then
    Error
      (Printf.sprintf "accepted %d exceeds threshold %d" (accepted_count t) t.threshold)
  else if t.in_reg <> t.out_reg then Error "in_reg and out_reg differ between cycles"
  else if Word.logand t.prev_out t.out_reg <> t.prev_out then
    Error "a previously accepted bit was revoked"
  else Ok ()
