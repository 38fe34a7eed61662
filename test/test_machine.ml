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

(* ---- page-lookup cache index ---- *)

let pno a = Int64.to_int (Int64.shift_right_logical a Memory.page_shift)

let region_bases =
  [
    ("globals", Memmap.globals_base);
    ("layout region", Memmap.layout_region_base);
    ("global table", Memmap.global_table_base);
    ("heap", Memmap.heap_base);
    ("stack", Int64.sub Memmap.stack_top (Int64.of_int Memmap.stack_size));
    ("stack top", Int64.pred Memmap.stack_top);
  ]

(* The region bases are aligned to large powers of two, so a
   low-bits index would put their first pages in one slot and a
   promote's metadata read would evict the data page it guards. *)
let test_region_slots_distinct () =
  List.iteri
    (fun i (n1, b1) ->
      List.iteri
        (fun j (n2, b2) ->
          if i < j then
            Alcotest.(check bool)
              (Printf.sprintf "%s and %s slots differ" n1 n2)
              true
              (Memory.slot (pno b1) <> Memory.slot (pno b2)))
        region_bases)
    region_bases

(* A global-table row and a heap object on the heap's first page, the
   access pattern of a global-table promote followed by the field load:
   both pages stay in the lookup cache, in the entries [Memory.slot]
   names, and every read sees the last write. *)
let test_alternating_regions () =
  let m = Memory.create () in
  let row = Int64.add Memmap.global_table_base 16L in
  let obj = Int64.add Memmap.heap_base 0x40L in
  Memory.map m ~base:Memmap.global_table_base
    ~size:(Memmap.global_table_entries * 16);
  Memory.map m ~base:Memmap.heap_base ~size:(1 lsl 20);
  for i = 1 to 200 do
    Memory.write_u64 m row (Int64.of_int i);
    Memory.write_u64 m obj (Int64.of_int (-i));
    Alcotest.(check int64) "row" (Int64.of_int i) (Memory.read_u64 m row);
    Alcotest.(check int64) "object" (Int64.of_int (-i)) (Memory.read_u64 m obj)
  done;
  List.iter
    (fun (what, a) ->
      Alcotest.(check int)
        (what ^ " page cached in its slot")
        (pno a)
        m.Memory.pcache_pno.(Memory.slot (pno a)))
    [ ("global table", row); ("heap", obj) ]

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

(* The L1 model against a naive 8-way LRU reference: one list per set,
   most recently used first. The streams favour what LRU order has to
   get right: repeats of the last line, other lines of its set, bursts
   of new lines that evict the whole set, returns to a line a few
   accesses back, and flushes. *)
type l1_op = Recent of int | Same_set of int | Evict | Other of int | Flush

let l1_op_gen =
  QCheck.Gen.(
    frequency
      [
        (3, return (Recent 0));
        (3, map (fun i -> Recent i) (int_range 1 15));
        (4, map (fun k -> Same_set k) (int_bound 15));
        (2, return Evict);
        (1, map (fun k -> Other k) (int_bound 1023));
        (1, return Flush);
      ])

let l1_op_to_string = function
  | Recent i -> Printf.sprintf "recent %d" i
  | Same_set k -> Printf.sprintf "same-set %d" k
  | Evict -> "evict"
  | Other k -> Printf.sprintf "line %d" k
  | Flush -> "flush"

let prop_l1_reference =
  QCheck.Test.make ~count:300 ~name:"L1 model matches a naive 8-way LRU"
    (QCheck.make
       ~print:QCheck.Print.(list l1_op_to_string)
       QCheck.Gen.(list_size (int_range 1 400) l1_op_gen))
    (fun ops ->
      let sets = 64 and ways = 8 in
      let c = Cache.create () in
      let ref_sets = Array.make sets [] in
      let ref_accesses = ref 0 and ref_misses = ref 0 in
      (* lines accessed, most recent first; [fresh] numbers the tags
         nothing has used yet *)
      let history = ref [ 0 ] and fresh = ref 16 in
      let access line =
        history := List.filteri (fun i _ -> i < 16) (line :: !history);
        incr ref_accesses;
        let s = line land (sets - 1) in
        let hit = List.mem line ref_sets.(s) in
        if not hit then incr ref_misses;
        let rest = List.filter (fun l -> l <> line) ref_sets.(s) in
        ref_sets.(s) <- List.filteri (fun i _ -> i < ways) (line :: rest);
        Bool.equal (Cache.access_line c line) hit
        && Cache.accesses c = !ref_accesses
        && Cache.misses c = !ref_misses
      in
      let set_of_last () = List.hd !history land (sets - 1) in
      List.for_all
        (function
          | Flush ->
            Cache.flush c;
            Array.fill ref_sets 0 sets [];
            ref_accesses := 0;
            ref_misses := 0;
            true
          | Recent i ->
            access
              (match List.nth_opt !history i with
              | Some l -> l
              | None -> List.hd !history)
          | Same_set k -> access (set_of_last () + (k * sets))
          | Evict ->
            let s = set_of_last () in
            List.for_all
              (fun _ ->
                incr fresh;
                access (s + (!fresh * sets)))
              (List.init ways Fun.id)
          | Other k -> access k)
        ops)

(* A released L1 model keeps nothing the next model on its domain
   takes: probing it afterwards leaves the new model's lines alone. *)
let test_cache_release () =
  let c1 = Cache.create () in
  ignore (Cache.access c1 0x1000L Cache.Load);
  Cache.release c1;
  let c2 = Cache.create () in
  Alcotest.(check bool) "next model starts cold" false
    (Cache.access c2 0x1000L Cache.Load);
  for i = 0 to 1023 do
    ignore (Cache.access c1 (Int64.of_int (i * 64)) Cache.Store)
  done;
  Alcotest.(check bool) "line kept" true (Cache.access c2 0x1000L Cache.Load);
  Alcotest.(check int) "stats kept" 2 (Cache.accesses c2)

(* A released memory maps nothing: a late access faults instead of
   reading zeros or a page another run now owns. *)
let test_released_memory_faults () =
  let m = mapped_mem () in
  Memory.write_u64 m 0x1000L 42L;
  Memory.write_u64 m 0x5000L 43L;
  Memory.release m;
  Alcotest.(check bool) "not mapped" false (Memory.is_mapped m 0x1000L);
  let faults name f =
    Alcotest.check_raises name (Memory.Fault (Memory.Unmapped, 0x1000L)) f
  in
  faults "read_u8" (fun () -> ignore (Memory.read_u8 m 0x1000L));
  faults "read_u16" (fun () -> ignore (Memory.read_u16 m 0x1000L));
  faults "read_u32" (fun () -> ignore (Memory.read_u32 m 0x1000L));
  faults "read_u64" (fun () -> ignore (Memory.read_u64 m 0x1000L));
  faults "write_u8" (fun () -> Memory.write_u8 m 0x1000L 1);
  faults "write_u16" (fun () -> Memory.write_u16 m 0x1000L 1);
  faults "write_u32" (fun () -> Memory.write_u32 m 0x1000L 1L);
  faults "write_u64" (fun () -> Memory.write_u64 m 0x1000L 1L);
  (* the pooled pages come back wiped *)
  let m' = mapped_mem () in
  Alcotest.(check int64) "recycled page reads zero" 0L (Memory.read_u64 m' 0x1000L);
  Alcotest.(check int64) "second recycled page" 0L (Memory.read_u64 m' 0x5000L)

let minic name src =
  match Frontend.check ~file:name src with Ok p -> p | Error e -> Alcotest.fail e

(* Dirties globals, heap and stack with nonzero words. *)
let dirty_src =
  "global i64 g[1024];\n\
   i64 fill(i64* p, i64 n) {\n\
  \  let i: i64 = 0;\n\
  \  while (i < n) { p[i] = 0 - 1 - i; i = i + 1; }\n\
  \  return n;\n\
   }\n\
   i64 main() {\n\
  \  var buf: i64[1024];\n\
  \  let h: i64* = malloc(i64, 4096);\n\
  \  return fill(&g[0], 1024) + fill(&buf[0], 1024) + fill(h, 4096);\n\
   }\n"

(* Reads globals, heap and stack it never wrote. *)
let reader_src =
  "global i64 g[1024];\n\
   i64 sum(i64* p, i64 n) {\n\
  \  let i: i64 = 0;\n\
  \  let acc: i64 = 0;\n\
  \  while (i < n) { acc = acc + p[i]; i = i + 1; }\n\
  \  return acc;\n\
   }\n\
   i64 main() {\n\
  \  var buf: i64[1024];\n\
  \  let h: i64* = malloc(i64, 4096);\n\
  \  __print_i64(sum(&g[0], 1024));\n\
  \  __print_i64(sum(&buf[0], 1024));\n\
  \  __print_i64(sum(h, 4096));\n\
  \  return 7;\n\
   }\n"

let in_fresh_domain f = Domain.join (Domain.spawn f)

(* A run on pages an earlier run of the same domain dirtied sees what a
   run on a fresh domain (an empty pool) sees. *)
let test_recycled_pages_fresh () =
  let dirty = minic "dirty.minic" dirty_src
  and reader = minic "reader.minic" reader_src in
  List.iter
    (fun (cname, config) ->
      let run p = Ifp_fuzz.Oracle.result_sig (Vm.run ~config p) in
      let fresh = in_fresh_domain (fun () -> run reader) in
      let pooled, recycled =
        in_fresh_domain (fun () ->
            ignore (run dirty);
            let pooled = Memory.pooled_pages () in
            (pooled, run reader))
      in
      Alcotest.(check bool) (cname ^ ": the first run filled the pool") true
        (pooled > 0);
      Alcotest.(check string) (cname ^ ": same result as a fresh domain") fresh
        recycled)
    [ ("baseline", Vm.baseline); ("subheap", Vm.ifp_subheap); ("wrapped", Vm.ifp_wrapped) ]

(* A run touching more pages than the cap leaves the pool at the cap. *)
let test_pool_capped () =
  let treeadd =
    Lazy.force (Option.get (Ifp_workloads.Registry.find "treeadd")).prog
  in
  let footprint, pooled =
    in_fresh_domain (fun () ->
        let r = Vm.run ~config:Vm.baseline treeadd in
        (r.Vm.mem_footprint, Memory.pooled_pages ()))
  in
  Alcotest.(check bool) "the run touched more pages than the cap" true
    (footprint > Memory.pool_cap * Memory.page_size);
  Alcotest.(check bool) "the pool holds at most the cap" true
    (pooled <= Memory.pool_cap)

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
    Alcotest.test_case "region bases in distinct page-cache slots" `Quick
      test_region_slots_distinct;
    Alcotest.test_case "global-table row and heap base alternate" `Quick
      test_alternating_regions;
    Alcotest.test_case "cache hit/miss" `Quick test_cache_hit_miss;
    Alcotest.test_case "cache LRU eviction" `Quick test_cache_lru_eviction;
    Alcotest.test_case "cache range access" `Quick test_cache_range;
    Alcotest.test_case "cache empty range" `Quick test_cache_empty_range;
    Alcotest.test_case "cache set indexing" `Quick test_cache_set_indexing;
    Alcotest.test_case "cache flush" `Quick test_cache_flush;
    Alcotest.test_case "cache probes allocate nothing" `Quick test_cache_no_alloc;
    QCheck_alcotest.to_alcotest prop_l1_reference;
    Alcotest.test_case "released cache shares nothing" `Quick test_cache_release;
    Alcotest.test_case "released memory faults" `Quick test_released_memory_faults;
    Alcotest.test_case "recycled pages read like fresh ones" `Quick
      test_recycled_pages_fresh;
    Alcotest.test_case "page pool capped" `Quick test_pool_capped;
  ]
