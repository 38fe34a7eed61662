(* Unit and property tests for Ifp_util: bit fields, PRNG, stats, tables. *)

open Core

let test_mask () =
  Alcotest.(check int64) "mask 0" 0L (Bits.mask 0);
  Alcotest.(check int64) "mask 1" 1L (Bits.mask 1);
  Alcotest.(check int64) "mask 16" 0xFFFFL (Bits.mask 16);
  Alcotest.(check int64) "mask 48" 0xFFFF_FFFF_FFFFL (Bits.mask 48);
  Alcotest.check_raises "mask 64 rejected" (Invalid_argument "Bits.mask")
    (fun () -> ignore (Bits.mask 64))

let test_extract_insert () =
  let x = 0xDEAD_BEEF_CAFE_F00DL in
  Alcotest.(check int64) "extract low byte" 0x0DL (Bits.extract x ~lo:0 ~width:8);
  Alcotest.(check int64) "extract mid" 0xFEL (Bits.extract x ~lo:16 ~width:8);
  let y = Bits.insert x ~lo:48 ~width:16 0x1234L in
  Alcotest.(check int64) "insert top" 0x1234L (Bits.extract y ~lo:48 ~width:16);
  Alcotest.(check int64) "insert preserves rest" (Bits.u48 x) (Bits.u48 y)

let test_pow2 () =
  Alcotest.(check bool) "1 is pow2" true (Bits.is_pow2 1);
  Alcotest.(check bool) "4096 is pow2" true (Bits.is_pow2 4096);
  Alcotest.(check bool) "0 is not" false (Bits.is_pow2 0);
  Alcotest.(check bool) "6 is not" false (Bits.is_pow2 6);
  Alcotest.(check int) "log2 4096" 12 (Bits.log2_exact 4096);
  Alcotest.(check int) "ceil_log2 1" 0 (Bits.ceil_log2 1);
  Alcotest.(check int) "ceil_log2 1000" 10 (Bits.ceil_log2 1000);
  Alcotest.(check int) "ceil_log2 1024" 10 (Bits.ceil_log2 1024)

let test_align () =
  Alcotest.(check int) "align_up 5 16" 16 (Bits.align_up 5 16);
  Alcotest.(check int) "align_up 16 16" 16 (Bits.align_up 16 16);
  Alcotest.(check int) "align_down 31 16" 16 (Bits.align_down 31 16);
  Alcotest.(check int64) "align_up64" 32L (Bits.align_up64 17L 16);
  Alcotest.(check int64) "align_down64" 16L (Bits.align_down64 31L 16)

let prop_insert_extract =
  QCheck.Test.make ~count:500 ~name:"insert then extract round-trips"
    QCheck.(triple int64 (int_bound 47) (int_range 1 16))
    (fun (x, lo, width) ->
      let v = Int64.logand x (Bits.mask width) in
      Int64.equal (Bits.extract (Bits.insert 0L ~lo ~width v) ~lo ~width) v)

let prop_align_up_ge =
  QCheck.Test.make ~count:500 ~name:"align_up is >= and aligned"
    QCheck.(pair (int_bound 1_000_000) (int_range 0 12))
    (fun (x, l) ->
      let a = 1 lsl l in
      let r = Bits.align_up x a in
      r >= x && r mod a = 0 && r - x < a)

let test_prng_determinism () =
  let a = Prng.create 99L and b = Prng.create 99L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.next64 a) (Prng.next64 b)
  done

let test_prng_bounds () =
  let r = Prng.create 7L in
  for _ = 1 to 1000 do
    let x = Prng.int r 17 in
    Alcotest.(check bool) "in range" true (x >= 0 && x < 17)
  done;
  for _ = 1 to 1000 do
    let x = Prng.int_in r (-5) 5 in
    Alcotest.(check bool) "int_in range" true (x >= -5 && x <= 5)
  done

let test_prng_shuffle_permutes () =
  let r = Prng.create 3L in
  let a = Array.init 50 Fun.id in
  Prng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 Fun.id) sorted

let test_mix2_sensitivity () =
  let base = Prng.mix2 1L 2L in
  Alcotest.(check bool) "first arg matters" true
    (not (Int64.equal base (Prng.mix2 2L 2L)));
  Alcotest.(check bool) "second arg matters" true
    (not (Int64.equal base (Prng.mix2 1L 3L)))

let test_stats () =
  Alcotest.(check (float 1e-9)) "geomean of equal" 2.0
    (Stats.geomean [ 2.0; 2.0; 2.0 ]);
  Alcotest.(check (float 1e-9)) "geomean 1 for empty" 1.0 (Stats.geomean []);
  Alcotest.(check (float 1e-6)) "geomean 2,8" 4.0 (Stats.geomean [ 2.0; 8.0 ]);
  Alcotest.(check string) "percent +" "+12.0%" (Stats.percent 1.12);
  Alcotest.(check string) "percent -" "-6.0%" (Stats.percent 0.94);
  Alcotest.(check (float 1e-9)) "ratio guard" 0.0 (Stats.ratio 5.0 0.0)

let test_table_render () =
  let s = Table.render ~header:[ "a"; "b" ] [ [ "x"; "1" ]; [ "yy"; "22" ] ] in
  Alcotest.(check bool) "contains header" true
    (String.length s > 0 && String.index_opt s 'a' <> None);
  (* all lines have the same width *)
  let lines = String.split_on_char '\n' s |> List.filter (fun l -> l <> "") in
  let widths = List.map String.length lines in
  Alcotest.(check bool) "uniform width" true
    (List.for_all (fun w -> w = List.hd widths) widths)

let test_crc32 () =
  let crc = Ifp_util.Crc32.string in
  Alcotest.(check int32) "IEEE check value" 0xCBF43926l (crc "123456789");
  Alcotest.(check int32) "empty string" 0l (crc "");
  (* concurrent first use from several domains: the table is shared *)
  let ds = List.init 4 (fun _ -> Domain.spawn (fun () -> crc "123456789")) in
  List.iter
    (fun d -> Alcotest.(check int32) "same on every domain" 0xCBF43926l (Domain.join d))
    ds

let tests =
  [
    Alcotest.test_case "mask" `Quick test_mask;
    Alcotest.test_case "extract/insert" `Quick test_extract_insert;
    Alcotest.test_case "pow2 helpers" `Quick test_pow2;
    Alcotest.test_case "align" `Quick test_align;
    QCheck_alcotest.to_alcotest prop_insert_extract;
    QCheck_alcotest.to_alcotest prop_align_up_ge;
    Alcotest.test_case "prng determinism" `Quick test_prng_determinism;
    Alcotest.test_case "prng bounds" `Quick test_prng_bounds;
    Alcotest.test_case "prng shuffle" `Quick test_prng_shuffle_permutes;
    Alcotest.test_case "mix2 sensitivity" `Quick test_mix2_sensitivity;
    Alcotest.test_case "stats" `Quick test_stats;
    Alcotest.test_case "table render" `Quick test_table_render;
    Alcotest.test_case "crc32" `Quick test_crc32;
  ]
