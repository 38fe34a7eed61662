(* Tests for the simulated memory and the L1 cache model. *)

open Core

let mapped_mem () =
  let m = Memory.create () in
  Memory.map m ~base:0x1000L ~size:65536;
  m

let test_rw_roundtrip () =
  let m = mapped_mem () in
  Memory.write_u8 m 0x1000L 0xAB;
  Alcotest.(check int) "u8" 0xAB (Memory.read_u8 m 0x1000L);
  Memory.write_u16 m 0x1010L 0xBEEF;
  Alcotest.(check int) "u16" 0xBEEF (Memory.read_u16 m 0x1010L);
  Memory.write_u32 m 0x1020L 0xDEADBEEFL;
  Alcotest.(check int64) "u32" 0xDEADBEEFL (Memory.read_u32 m 0x1020L);
  Memory.write_u64 m 0x1030L 0x0123456789ABCDEFL;
  Alcotest.(check int64) "u64" 0x0123456789ABCDEFL (Memory.read_u64 m 0x1030L)

let test_little_endian () =
  let m = mapped_mem () in
  Memory.write_u32 m 0x1000L 0x11223344L;
  Alcotest.(check int) "LSB first" 0x44 (Memory.read_u8 m 0x1000L);
  Alcotest.(check int) "MSB last" 0x11 (Memory.read_u8 m 0x1003L)

let test_cross_page () =
  let m = mapped_mem () in
  (* straddle the boundary between two pages *)
  let a = Int64.of_int ((0x2000 - 4) + 0) in
  Memory.write_u64 m a 0xCAFEBABE12345678L;
  Alcotest.(check int64) "cross-page u64" 0xCAFEBABE12345678L (Memory.read_u64 m a)

let test_unmapped_faults () =
  let m = mapped_mem () in
  Alcotest.check_raises "read fault"
    (Memory.Fault (Memory.Unmapped, 0x999999L))
    (fun () -> ignore (Memory.read_u8 m 0x999999L));
  Alcotest.check_raises "write fault"
    (Memory.Fault (Memory.Unmapped, 0x999999L))
    (fun () -> Memory.write_u8 m 0x999999L 1)

let test_unmap () =
  let m = mapped_mem () in
  Memory.write_u64 m 0x1000L 42L;
  Memory.unmap m ~base:0x1000L ~size:4096;
  Alcotest.(check bool) "not mapped" false (Memory.is_mapped m 0x1000L);
  Alcotest.check_raises "fault after unmap"
    (Memory.Fault (Memory.Unmapped, 0x1000L))
    (fun () -> ignore (Memory.read_u8 m 0x1000L))

let test_zero_fill () =
  let m = mapped_mem () in
  Alcotest.(check int64) "fresh page zero" 0L (Memory.read_u64 m 0x1FF8L)

let test_strings () =
  let m = mapped_mem () in
  Memory.blit_string m 0x1100L "hello";
  Alcotest.(check string) "blit/read" "hello"
    (Memory.read_string m 0x1100L ~len:5)

let test_tag_bits_ignored () =
  let m = mapped_mem () in
  (* the upper 16 bits of an address are not part of the location *)
  let tagged = Int64.logor 0x1200L (Int64.shift_left 0xABCDL 48) in
  Memory.write_u64 m tagged 7L;
  Alcotest.(check int64) "tag-stripped access" 7L (Memory.read_u64 m 0x1200L)

let prop_rw_any =
  QCheck.Test.make ~count:300 ~name:"write then read returns the value"
    QCheck.(triple (int_bound 65528) int64 (int_range 0 3))
    (fun (off, value, szsel) ->
      let m = mapped_mem () in
      let bytes = [| 1; 2; 4; 8 |].(szsel) in
      let a = Int64.add 0x1000L (Int64.of_int off) in
      let v = Int64.logand value (Bits.mask (8 * bytes - 1)) in
      Memory.write_size m a ~bytes v;
      Int64.equal (Memory.read_size m a ~bytes) v)

let test_map_size_zero () =
  let m = Memory.create () in
  Memory.map m ~base:0x5000L ~size:0;
  Alcotest.(check bool) "size-0 map maps nothing" false (Memory.is_mapped m 0x5000L);
  Alcotest.(check int) "no bytes mapped" 0 (Memory.mapped_bytes m);
  Alcotest.check_raises "still faults"
    (Memory.Fault (Memory.Unmapped, 0x5000L))
    (fun () -> ignore (Memory.read_u8 m 0x5000L))

let test_map_intervals () =
  let m = Memory.create () in
  Memory.map m ~base:0x0L ~size:4096;
  Memory.map m ~base:0x2000L ~size:8192;
  (* filling the gap must merge the regions, not double-count them *)
  Memory.map m ~base:0x1000L ~size:4096;
  Memory.map m ~base:0x2000L ~size:4096 (* remap is a no-op *);
  Alcotest.(check bool) "merged region mapped" true (Memory.is_mapped m 0x3FFFL);
  Alcotest.(check int) "mapped bytes" (4 * 4096) (Memory.mapped_bytes m);
  Memory.unmap m ~base:0x1000L ~size:4096;
  Alcotest.(check bool) "hole unmapped" false (Memory.is_mapped m 0x1000L);
  Alcotest.(check bool) "left of hole intact" true (Memory.is_mapped m 0xFFFL);
  Alcotest.(check bool) "right of hole intact" true (Memory.is_mapped m 0x2000L);
  Alcotest.(check int) "mapped bytes after hole" (3 * 4096) (Memory.mapped_bytes m)

let test_torn_store () =
  (* a store straddling into an unmapped page must fault before any
     byte is committed (no torn store) *)
  let m = Memory.create () in
  Memory.map m ~base:0x1000L ~size:4096;
  Memory.write_u64 m 0x1FF0L 0x1122334455667788L;
  (match Memory.write_u64 m 0x1FFCL 0xDEADBEEFCAFEBABEL with
  | () -> Alcotest.fail "expected fault"
  | exception Memory.Fault (Memory.Unmapped, a) ->
    Alcotest.(check int64) "faults at first unmapped byte" 0x2000L a);
  Alcotest.(check int64) "earlier data intact" 0x1122334455667788L
    (Memory.read_u64 m 0x1FF0L);
  for i = 0 to 3 do
    Alcotest.(check int) "no partial bytes written" 0
      (Memory.read_u8 m (Int64.add 0x1FFCL (Int64.of_int i)))
  done

(* Byte-wise reference model: a [Bytes.t] shadow of the mapped region,
   updated little-endian on every successful store. The simulated
   memory must agree byte-for-byte after an arbitrary op sequence —
   any size, any alignment, page-straddling or faulting. *)
let model_base = 0x10000L
let model_size = 4 * 4096

let model_write model off bytes v =
  for i = 0 to bytes - 1 do
    Bytes.set model (off + i)
      (Char.chr
         (Int64.to_int
            (Int64.logand (Int64.shift_right_logical v (8 * i)) 0xFFL)))
  done

let model_read model off bytes =
  let r = ref 0L in
  for i = bytes - 1 downto 0 do
    r :=
      Int64.logor
        (Int64.shift_left !r 8)
        (Int64.of_int (Char.code (Bytes.get model (off + i))))
  done;
  !r

let prop_byte_model =
  QCheck.Test.make ~count:100 ~name:"memory agrees with a byte-wise model"
    QCheck.(
      list_of_size (Gen.int_range 1 40)
        (triple (int_bound (model_size + 64)) int64 (int_range 0 7)))
    (fun ops ->
      let m = Memory.create () in
      Memory.map m ~base:model_base ~size:model_size;
      let model = Bytes.make model_size '\000' in
      let ok = ref true in
      List.iter
        (fun (off, v, sel) ->
          let bytes = [| 1; 2; 4; 8 |].(sel land 3) in
          (* half the ops are forced onto a page boundary so straddling
             paths stay exercised *)
          let off =
            if sel >= 4 then (off / 4096 * 4096) + 4096 - (bytes / 2) - 1
            else off
          in
          let a = Int64.add model_base (Int64.of_int off) in
          if off >= 0 && off + bytes <= model_size then begin
            Memory.write_size m a ~bytes v;
            model_write model off bytes v;
            if not (Int64.equal (Memory.read_size m a ~bytes) (model_read model off bytes))
            then ok := false
          end
          else begin
            (* outside (or straddling out of) the region: the write
               must fault and leave memory untouched; the final sweep
               checks the latter *)
            match Memory.write_size m a ~bytes v with
            | () -> ok := false
            | exception Memory.Fault _ -> ()
          end)
        ops;
      for i = 0 to model_size - 1 do
        if
          Memory.read_u8 m (Int64.add model_base (Int64.of_int i))
          <> Char.code (Bytes.get model i)
        then ok := false
      done;
      !ok)

let test_cache_hit_miss () =
  let c = Cache.create () in
  Alcotest.(check bool) "cold miss" false (Cache.access c 0x1000L Cache.Load);
  Alcotest.(check bool) "warm hit" true (Cache.access c 0x1000L Cache.Load);
  Alcotest.(check bool) "same line hit" true (Cache.access c 0x103FL Cache.Load);
  Alcotest.(check bool) "next line miss" false (Cache.access c 0x1040L Cache.Load);
  Alcotest.(check int) "accesses" 4 (Cache.accesses c);
  Alcotest.(check int) "misses" 2 (Cache.misses c)

let test_cache_lru_eviction () =
  (* tiny cache: 2 ways x 1 set of 64-byte lines *)
  let c = Cache.create ~size_bytes:128 ~ways:2 ~line_bytes:64 () in
  ignore (Cache.access c 0x0L Cache.Load);
  ignore (Cache.access c 0x40L Cache.Load);
  ignore (Cache.access c 0x0L Cache.Load);
  (* fills the set; evicts 0x40 (LRU), not 0x0 *)
  ignore (Cache.access c 0x80L Cache.Load);
  Alcotest.(check bool) "0x0 still resident" true (Cache.access c 0x0L Cache.Load);
  Alcotest.(check bool) "0x40 evicted" false (Cache.access c 0x40L Cache.Load)

let test_cache_range () =
  let c = Cache.create () in
  (* an 8-byte access crossing a line boundary touches two lines *)
  let misses = Cache.access_range c 0x103CL ~bytes:8 Cache.Load in
  Alcotest.(check int) "two cold lines" 2 misses;
  let misses = Cache.access_range c 0x103CL ~bytes:8 Cache.Load in
  Alcotest.(check int) "warm" 0 misses

let test_cache_empty_range () =
  let c = Cache.create () in
  Alcotest.(check int) "zero-byte range misses nothing" 0
    (Cache.access_range c 0x1000L ~bytes:0 Cache.Load);
  Alcotest.(check int) "and records no access" 0 (Cache.accesses c);
  Alcotest.(check int) "negative size likewise" 0
    (Cache.access_range c 0x1000L ~bytes:(-4) Cache.Load)

let test_cache_set_indexing () =
  (* conflicting lines must land in the same set and evict LRU-first;
     a set-index masking bug would spread them across sets *)
  let c = Cache.create ~size_bytes:256 ~ways:2 ~line_bytes:64 () in
  (* 2 sets: even lines map to set 0, odd lines to set 1 *)
  ignore (Cache.access c 0x000L Cache.Load) (* set 0 *);
  ignore (Cache.access c 0x040L Cache.Load) (* set 1 *);
  ignore (Cache.access c 0x080L Cache.Load) (* set 0 *);
  ignore (Cache.access c 0x100L Cache.Load) (* set 0: evicts LRU 0x000 *);
  Alcotest.(check bool) "other set undisturbed" true
    (Cache.access c 0x040L Cache.Load);
  Alcotest.(check bool) "LRU way evicted" false
    (Cache.access c 0x000L Cache.Load);
  Alcotest.(check bool) "recent way kept" true
    (Cache.access c 0x100L Cache.Load)

let test_cache_flush () =
  let c = Cache.create () in
  ignore (Cache.access c 0x1000L Cache.Load);
  Cache.flush c;
  Alcotest.(check int) "stats reset" 0 (Cache.accesses c);
  Alcotest.(check bool) "cold again" false (Cache.access c 0x1000L Cache.Load)

(* Minor words allocated per call of [f], less those of an empty call:
   [Gc.minor_words] boxes its own result, so the calibration cancels it. *)
let words_per_call f =
  let words g =
    let w0 = Gc.minor_words () in
    for i = 0 to 9_999 do
      g i
    done;
    Gc.minor_words () -. w0
  in
  (words f -. words ignore) /. 10_000.

(* the cache model is probed on every simulated access and metadata
   fetch: no probe may allocate, hit or miss *)
let test_cache_no_alloc () =
  let c = Cache.create () in
  (* 32 KiB apart: all in one set, so every probe after the first eight
     misses in a cycle over 64 lines *)
  let far = Array.init 64 (fun i -> Int64.of_int (0x10000 + (i * 32768))) in
  let check name f = Alcotest.(check (float 0.)) name 0. (words_per_call f) in
  ignore (Cache.access c 0x1000L Cache.Load);
  check "access hit" (fun _ -> ignore (Cache.access c 0x1000L Cache.Load));
  let m0 = Cache.misses c in
  check "access miss" (fun i ->
      ignore (Cache.access c far.(i land 63) Cache.Store));
  Alcotest.(check int) "every far probe missed" 10_000 (Cache.misses c - m0);
  check "range, one line" (fun _ ->
      ignore (Cache.access_range c 0x1000L ~bytes:8 Cache.Load));
  check "range, three lines" (fun _ ->
      ignore (Cache.access_range c 0x1030L ~bytes:100 Cache.Load));
  let m0 = Cache.misses c in
  check "range miss" (fun i ->
      ignore (Cache.access_range c far.(i land 63) ~bytes:16 Cache.Load));
  (* from 48 bytes into each far line to 32 bytes into the next *)
  let straddle = Array.map (fun a -> Int64.add a 48L) far in
  check "range miss, two lines" (fun i ->
      ignore (Cache.access_range c straddle.(i land 63) ~bytes:48 Cache.Load));
  Alcotest.(check bool) "range probes missed" true
    (Cache.misses c - m0 >= 20_000)

let tests =
  [
    Alcotest.test_case "rw roundtrip" `Quick test_rw_roundtrip;
    Alcotest.test_case "little endian" `Quick test_little_endian;
    Alcotest.test_case "cross page access" `Quick test_cross_page;
    Alcotest.test_case "unmapped faults" `Quick test_unmapped_faults;
    Alcotest.test_case "unmap" `Quick test_unmap;
    Alcotest.test_case "zero fill" `Quick test_zero_fill;
    Alcotest.test_case "strings" `Quick test_strings;
    Alcotest.test_case "tag bits ignored" `Quick test_tag_bits_ignored;
    QCheck_alcotest.to_alcotest prop_rw_any;
    Alcotest.test_case "map size zero" `Quick test_map_size_zero;
    Alcotest.test_case "map interval merging" `Quick test_map_intervals;
    Alcotest.test_case "no torn store on straddle fault" `Quick test_torn_store;
    QCheck_alcotest.to_alcotest prop_byte_model;
    Alcotest.test_case "cache hit/miss" `Quick test_cache_hit_miss;
    Alcotest.test_case "cache LRU eviction" `Quick test_cache_lru_eviction;
    Alcotest.test_case "cache range access" `Quick test_cache_range;
    Alcotest.test_case "cache empty range" `Quick test_cache_empty_range;
    Alcotest.test_case "cache set indexing" `Quick test_cache_set_indexing;
    Alcotest.test_case "cache flush" `Quick test_cache_flush;
    Alcotest.test_case "cache probes allocate nothing" `Quick test_cache_no_alloc;
  ]
