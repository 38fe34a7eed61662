(* Tests for the buddy allocator and the three runtime allocators. *)

open Core

let test_buddy_alloc_free () =
  let b = Buddy.create ~base:0x1000_0000L ~size_log2:20 ~min_log2:12 in
  (match Buddy.alloc b 12 with
  | Some a ->
    Alcotest.(check int64) "first block at base" 0x1000_0000L a;
    Alcotest.(check bool) "aligned" true
      (Int64.equal (Bits.align_down64 a 4096) a)
  | None -> Alcotest.fail "alloc failed");
  Alcotest.(check int) "in use" 4096 (Buddy.bytes_in_use b)

let test_buddy_coalescing () =
  let b = Buddy.create ~base:0x1000_0000L ~size_log2:20 ~min_log2:12 in
  let a1 = Option.get (Buddy.alloc b 12) in
  let a2 = Option.get (Buddy.alloc b 12) in
  Buddy.free b a1 12;
  Buddy.free b a2 12;
  Alcotest.(check int) "all returned" 0 (Buddy.bytes_in_use b);
  (* after coalescing, a full-size block is allocatable again *)
  match Buddy.alloc b 20 with
  | Some a -> Alcotest.(check int64) "whole arena back" 0x1000_0000L a
  | None -> Alcotest.fail "coalescing failed"

let test_buddy_exhaustion () =
  let b = Buddy.create ~base:0x1000_0000L ~size_log2:13 ~min_log2:12 in
  ignore (Buddy.alloc b 12);
  ignore (Buddy.alloc b 12);
  Alcotest.(check bool) "exhausted" true (Buddy.alloc b 12 = None)

let prop_buddy_alignment =
  QCheck.Test.make ~count:200 ~name:"buddy blocks are naturally aligned"
    QCheck.(list_of_size (Gen.int_range 1 20) (int_range 12 16))
    (fun sizes ->
      let b = Buddy.create ~base:0x1000_0000L ~size_log2:24 ~min_log2:12 in
      List.for_all
        (fun l ->
          match Buddy.alloc b l with
          | None -> true
          | Some a -> Int64.equal (Bits.align_down64 a (1 lsl l)) a)
        sizes)

let mk_env () =
  let mem = Memory.create () in
  Memory.map mem ~base:0x200000L ~size:(1 lsl 16);
  Memory.map mem ~base:0x300000L ~size:(4096 * 16);
  let meta =
    Meta.create ~memory:mem ~mac_key:7L
      ~layout_region:(0x200000L, 1 lsl 16)
      ~global_table:(0x300000L, 512) ()
  in
  (mem, meta)

let test_baseline_reuse () =
  let mem, _ = mk_env () in
  let a = Baseline_alloc.create ~memory:mem ~base:0x1000_0000L ~size:(1 lsl 20) in
  let p1, _ = a.Alloc.malloc ~size:48 ~cty:None in
  a.Alloc.free p1 |> ignore;
  let p2, _ = a.Alloc.malloc ~size:40 ~cty:None in
  Alcotest.(check int64) "same size class reused" p1 p2;
  Alcotest.(check bool) "16-aligned payload" true
    (Int64.equal (Bits.align_down64 p2 16) p2);
  let s = a.Alloc.stats () in
  Alcotest.(check int) "allocs" 2 s.Alloc.n_allocs;
  Alcotest.(check int) "frees" 1 s.Alloc.n_frees

let test_baseline_untagged () =
  let mem, _ = mk_env () in
  let a = Baseline_alloc.create ~memory:mem ~base:0x1000_0000L ~size:(1 lsl 20) in
  let p, _ = a.Alloc.malloc ~size:64 ~cty:None in
  Alcotest.(check bool) "legacy pointer" true (Tag.scheme p = Tag.Legacy)

(* The baseline allocator's double-free check as a per-class list scan:
   the reference for [prop_baseline_bins]. Same headers (class, requested
   size, magic), same carving, int64 list bins, [List.exists]. *)
module Ref_baseline = struct
  type t = {
    mem : Memory.t;
    mutable brk : int64;
    bins : (int, int64 list ref) Hashtbl.t;
  }

  let create mem ~base ~size =
    Memory.map mem ~base ~size;
    { mem; brk = base; bins = Hashtbl.create 64 }

  let bin t cls =
    match Hashtbl.find_opt t.bins cls with
    | Some r -> r
    | None ->
      let r = ref [] in
      Hashtbl.replace t.bins cls r;
      r

  let malloc t size =
    let size = max size 1 in
    let cls = Bits.align_up size 16 in
    let b = bin t cls in
    let p =
      match !b with
      | p :: rest ->
        b := rest;
        p
      | [] ->
        let p = Bits.align_up64 (Int64.add t.brk 16L) 16 in
        t.brk <- Int64.add p (Int64.of_int cls);
        p
    in
    let hdr = Int64.sub p 16L in
    Memory.write_u32 t.mem hdr (Int64.of_int cls);
    Memory.write_u32 t.mem (Int64.add hdr 4L) (Int64.of_int size);
    Memory.write_u64 t.mem (Int64.add hdr 8L) 0xC0FFEEL;
    p

  let free t p =
    let cls = Int64.to_int (Memory.read_u32 t.mem (Int64.sub p 16L)) in
    let b = bin t cls in
    if List.exists (Int64.equal p) !b then raise (Alloc.Double_free p);
    b := p :: !b
end

type heap_op =
  | Malloc of int * int  (* [k] mallocs of [n] bytes *)
  | Free of int * int  (* free [k] payloads from the [i]-th returned so far, modulo their count *)
  | Set_class of int * int  (* rewrite that payload's header class word *)

let show_heap_op = function
  | Malloc (k, n) -> Printf.sprintf "malloc %d x %d" k n
  | Free (i, k) -> Printf.sprintf "free #%d..+%d" i k
  | Set_class (i, c) -> Printf.sprintf "class #%d := %d" i c

(* The bins (a free list and a membership table each) answer exactly as
   the per-class scan: same payload from every malloc, [Double_free] on
   the same frees, also when a rewritten class word puts one payload in
   two bins. *)
let prop_baseline_bins =
  let classes = [ 16; 32; 48; 64 ] in
  let gen_op =
    QCheck.Gen.(
      frequency
        [
          (3, map2 (fun k n -> Malloc (k, n)) (int_range 1 40) (int_range 1 64));
          (3, map2 (fun i k -> Free (i, k)) (int_range 0 200) (int_range 1 40));
          ( 1,
            map2 (fun i c -> Set_class (i, c)) (int_range 0 200) (oneofl classes) );
        ])
  in
  QCheck.Test.make ~count:300 ~name:"baseline bins match class scans"
    (QCheck.make
       ~print:(QCheck.Print.list show_heap_op)
       QCheck.Gen.(list_size (int_range 1 30) gen_op))
    (fun ops ->
      let base = 0x1000_0000L and size = 1 lsl 20 in
      let mem = Memory.create () and ref_mem = Memory.create () in
      let a = Baseline_alloc.create ~memory:mem ~base ~size in
      let r = Ref_baseline.create ref_mem ~base ~size in
      let payloads = ref [||] in
      let nth i = !payloads.(i mod Array.length !payloads) in
      let try_free f p =
        match f p with () -> "ok" | exception Alloc.Double_free q -> Printf.sprintf "double %Lx" q
      in
      let same_free p =
        String.equal
          (try_free (fun p -> ignore (a.Alloc.free p)) p)
          (try_free (Ref_baseline.free r) p)
      in
      let same_malloc n =
        let p, _ = a.Alloc.malloc ~size:n ~cty:None in
        payloads := Array.append !payloads [| p |];
        Int64.equal p (Ref_baseline.malloc r n)
      in
      List.for_all
        (fun op ->
          match op with
          | Malloc (k, n) -> List.for_all same_malloc (List.init k (Fun.const n))
          | Free _ | Set_class _ when !payloads = [||] -> true
          | Free (i, k) -> List.for_all (fun j -> same_free (nth (i + j))) (List.init k Fun.id)
          | Set_class (i, c) ->
            let hdr = Int64.sub (nth i) 16L in
            Memory.write_u32 mem hdr (Int64.of_int c);
            Memory.write_u32 ref_mem hdr (Int64.of_int c);
            true)
        ops)

let tenv_node =
  Ctype.declare Ctype.empty_tenv
    {
      Ctype.sname = "n2";
      fields =
        [ { fname = "a"; fty = Ctype.I64 }; { fname = "b"; fty = Ctype.I64 } ];
    }

let test_wrapped_schemes () =
  let mem, meta = mk_env () in
  let base_alloc =
    Baseline_alloc.create ~memory:mem ~base:0x1000_0000L ~size:(1 lsl 22)
  in
  let w = Wrapped_alloc.create ~meta ~tenv:tenv_node ~base_alloc in
  (* small object: local-offset scheme, metadata behind it *)
  let p, _ = w.Alloc.malloc ~size:16 ~cty:(Some (Ctype.Struct "n2")) in
  Alcotest.(check bool) "small -> local offset" true
    (Tag.scheme p = Tag.Local_offset);
  (match Meta.Local_offset.lookup meta p with
  | Ok om, _ ->
    Alcotest.(check int) "size recorded" 16 om.Meta.obj_size;
    Alcotest.(check bool) "layout attached" true
      (not (Int64.equal om.layout_ptr 0L))
  | Error e, _ -> Alcotest.fail e);
  (* large object: global-table fallback *)
  let q, _ = w.Alloc.malloc ~size:5000 ~cty:None in
  Alcotest.(check bool) "large -> global table" true
    (Tag.scheme q = Tag.Global_table);
  (* free deregisters *)
  w.Alloc.free p |> ignore;
  (match Meta.Local_offset.lookup meta p with
  | Error _, _ -> ()
  | Ok _, _ -> Alcotest.fail "metadata survived free");
  w.Alloc.free q |> ignore

let test_subheap_pooling () =
  let mem, meta = mk_env () in
  let sh =
    Subheap_alloc.create ~meta ~tenv:tenv_node ~memory:mem ~base:0x1000_0000L
      ~size_log2:24
  in
  let p1, _ = sh.Alloc.malloc ~size:16 ~cty:(Some (Ctype.Struct "n2")) in
  let p2, _ = sh.Alloc.malloc ~size:16 ~cty:(Some (Ctype.Struct "n2")) in
  Alcotest.(check bool) "subheap scheme" true (Tag.scheme p1 = Tag.Subheap);
  (* same pool: adjacent slots in the same block *)
  Alcotest.(check int64) "slot stride" 16L (Int64.sub (Tag.addr p2) (Tag.addr p1));
  (* lookup resolves exact object bounds *)
  (match Meta.Subheap.lookup meta p2 with
  | Ok om, _, _ ->
    Alcotest.(check int64) "slot base" (Tag.addr p2) om.Meta.obj_base;
    Alcotest.(check int) "obj size" 16 om.obj_size
  | Error e, _, _ -> Alcotest.fail e);
  (* slot reuse after free *)
  sh.Alloc.free p1 |> ignore;
  let p3, _ = sh.Alloc.malloc ~size:16 ~cty:(Some (Ctype.Struct "n2")) in
  Alcotest.(check int64) "slot reused" (Tag.addr p1) (Tag.addr p3)

let test_subheap_separates_types () =
  let mem, meta = mk_env () in
  let sh =
    Subheap_alloc.create ~meta ~tenv:tenv_node ~memory:mem ~base:0x1000_0000L
      ~size_log2:24
  in
  let p1, _ = sh.Alloc.malloc ~size:16 ~cty:(Some (Ctype.Struct "n2")) in
  let p2, _ = sh.Alloc.malloc ~size:16 ~cty:None in
  (* same size, different type info -> different pools/blocks *)
  let b1 = Bits.align_down64 (Tag.addr p1) 4096 in
  let b2 = Bits.align_down64 (Tag.addr p2) 4096 in
  Alcotest.(check bool) "different blocks" true (not (Int64.equal b1 b2))

let test_subheap_huge_fallback () =
  let mem, meta = mk_env () in
  let sh =
    Subheap_alloc.create ~meta ~tenv:tenv_node ~memory:mem ~base:0x1000_0000L
      ~size_log2:24
  in
  let p, _ = sh.Alloc.malloc ~size:100_000 ~cty:None in
  Alcotest.(check bool) "huge -> global table" true
    (Tag.scheme p = Tag.Global_table);
  (match Meta.Global_table.lookup meta p with
  | Ok om, _ -> Alcotest.(check int) "size" 100_000 om.Meta.obj_size
  | Error e, _ -> Alcotest.fail e);
  sh.Alloc.free p |> ignore

let test_subheap_footprint_tighter_than_baseline () =
  (* the headline memory property: same-size nodes pack tighter than
     glibc-style chunks with headers *)
  let mem, meta = mk_env () in
  let bl = Baseline_alloc.create ~memory:mem ~base:0x1100_0000L ~size:(1 lsl 22) in
  let sh =
    Subheap_alloc.create ~meta ~tenv:tenv_node ~memory:mem ~base:0x1000_0000L
      ~size_log2:24
  in
  for _ = 1 to 500 do
    ignore (bl.Alloc.malloc ~size:16 ~cty:None);
    ignore (sh.Alloc.malloc ~size:16 ~cty:(Some (Ctype.Struct "n2")))
  done;
  let fb = (bl.Alloc.stats ()).Alloc.footprint_bytes in
  let fs = (sh.Alloc.stats ()).Alloc.footprint_bytes in
  Alcotest.(check bool) "subheap tighter" true (fs < fb)

let tests =
  [
    Alcotest.test_case "buddy alloc/free" `Quick test_buddy_alloc_free;
    Alcotest.test_case "buddy coalescing" `Quick test_buddy_coalescing;
    Alcotest.test_case "buddy exhaustion" `Quick test_buddy_exhaustion;
    QCheck_alcotest.to_alcotest prop_buddy_alignment;
    Alcotest.test_case "baseline reuse" `Quick test_baseline_reuse;
    Alcotest.test_case "baseline untagged" `Quick test_baseline_untagged;
    QCheck_alcotest.to_alcotest prop_baseline_bins;
    Alcotest.test_case "wrapped scheme selection" `Quick test_wrapped_schemes;
    Alcotest.test_case "subheap pooling" `Quick test_subheap_pooling;
    Alcotest.test_case "subheap separates types" `Quick test_subheap_separates_types;
    Alcotest.test_case "subheap huge fallback" `Quick test_subheap_huge_fallback;
    Alcotest.test_case "subheap packs tighter" `Quick
      test_subheap_footprint_tighter_than_baseline;
  ]
