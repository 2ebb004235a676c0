(* Tests for the fixed-width word operations the counting device relies
   on, in particular the lossy left shift. *)

module Word = Renaming_bitops.Word

let check = Alcotest.check

let test_mask () =
  check Alcotest.int "mask 1" 1 (Word.mask ~width:1);
  check Alcotest.int "mask 4" 15 (Word.mask ~width:4);
  check Alcotest.int "mask 8" 255 (Word.mask ~width:8)

let test_mask_bounds () =
  Alcotest.check_raises "width 0" (Invalid_argument "Word.mask: width out of range") (fun () ->
      ignore (Word.mask ~width:0));
  Alcotest.check_raises "width 63" (Invalid_argument "Word.mask: width out of range") (fun () ->
      ignore (Word.mask ~width:63))

let test_popcount () =
  check Alcotest.int "popcount 0" 0 (Word.popcount 0);
  check Alcotest.int "popcount 0b1011" 3 (Word.popcount 0b1011);
  check Alcotest.int "popcount full 10" 10 (Word.popcount (Word.mask ~width:10))

let test_bit_ops () =
  let w = Word.set_bit 0 3 in
  check Alcotest.bool "bit 3 set" true (Word.test_bit w 3);
  check Alcotest.bool "bit 2 unset" false (Word.test_bit w 2)

let test_shift_left_drops_high_bits () =
  (* width 4, value 0b1001; shifting left by 1 must drop the high bit:
     0b1001 << 1 = 0b0010 (not 0b10010). *)
  check Alcotest.int "lossy shl" 0b0010 (Word.shift_left ~width:4 0b1001 1);
  check Alcotest.int "shl by width" 0 (Word.shift_left ~width:4 0b1111 4);
  check Alcotest.int "shl beyond width" 0 (Word.shift_left ~width:4 0b1111 9)

let test_shift_right () =
  check Alcotest.int "shr" 0b0100 (Word.shift_right ~width:4 0b1001 1);
  check Alcotest.int "shr to zero" 0 (Word.shift_right ~width:4 0b1001 4)

let test_shift_roundtrip_keeps_low_bits () =
  (* The discard procedure's core identity: (w << k) >> k keeps exactly
     the bits below width - k. *)
  let width = 10 in
  let w = 0b1010110011 in
  for k = 0 to width do
    let kept = Word.shift_right ~width (Word.shift_left ~width w k) k in
    let expected = w land ((1 lsl max 0 (width - k)) - 1) in
    check Alcotest.int (Printf.sprintf "roundtrip k=%d" k) expected kept
  done

let test_keep_lowest () =
  check Alcotest.int "keep 2 of 0b10110" 0b00110 (Word.keep_lowest 0b10110 2);
  check Alcotest.int "keep 0" 0 (Word.keep_lowest 0b10110 0);
  check Alcotest.int "keep all" 0b10110 (Word.keep_lowest 0b10110 5);
  check Alcotest.int "keep more than set" 0b10110 (Word.keep_lowest 0b10110 10)

let test_pp () =
  let s = Format.asprintf "%a" (Word.pp ~width:6) 0b101 in
  check Alcotest.string "pp high-first" "000101" s

let qcheck_keep_lowest_popcount =
  QCheck.Test.make ~count:500 ~name:"keep_lowest keeps min(k, popcount) bits"
    QCheck.(pair (int_bound 0xFFFF) (int_bound 20))
    (fun (w, k) -> Word.popcount (Word.keep_lowest w k) = min k (Word.popcount w))

let qcheck_keep_lowest_subset =
  QCheck.Test.make ~count:500 ~name:"keep_lowest yields a subset"
    QCheck.(pair (int_bound 0xFFFF) (int_bound 20))
    (fun (w, k) ->
      let kept = Word.keep_lowest w k in
      kept land w = kept)

let qcheck_shift_popcount_monotone =
  QCheck.Test.make ~count:500 ~name:"lossy shl never increases popcount"
    QCheck.(pair (int_bound 0xFFFF) (int_bound 16))
    (fun (w0, k) ->
      let width = 16 in
      let w = w0 land Word.mask ~width in
      Word.popcount (Word.shift_left ~width w k) <= Word.popcount w)

let tests =
  [
    ( "bitops",
      [
        Alcotest.test_case "mask" `Quick test_mask;
        Alcotest.test_case "mask bounds" `Quick test_mask_bounds;
        Alcotest.test_case "popcount" `Quick test_popcount;
        Alcotest.test_case "bit ops" `Quick test_bit_ops;
        Alcotest.test_case "lossy left shift" `Quick test_shift_left_drops_high_bits;
        Alcotest.test_case "right shift" `Quick test_shift_right;
        Alcotest.test_case "shift roundtrip" `Quick test_shift_roundtrip_keeps_low_bits;
        Alcotest.test_case "keep lowest" `Quick test_keep_lowest;
        Alcotest.test_case "pp" `Quick test_pp;
        QCheck_alcotest.to_alcotest qcheck_keep_lowest_popcount;
        QCheck_alcotest.to_alcotest qcheck_keep_lowest_subset;
        QCheck_alcotest.to_alcotest qcheck_shift_popcount_monotone;
      ] );
  ]
