(* Tests for the MAC, the three object-metadata schemes and the promote
   engine. *)

open Core

let mk_ctx () =
  let mem = Memory.create () in
  Memory.map mem ~base:0x1000L ~size:(1 lsl 20);
  Memory.map mem ~base:0x200000L ~size:(1 lsl 16) (* layout region *);
  Memory.map mem ~base:0x300000L ~size:(4096 * 16) (* global table *);
  let meta =
    Meta.create ~memory:mem ~mac_key:0x1234_5678L
      ~layout_region:(0x200000L, 1 lsl 16)
      ~global_table:(0x300000L, 256) ()
  in
  (mem, meta)

let tenv_s =
  let t = Ctype.empty_tenv in
  let t =
    Ctype.declare t
      {
        Ctype.sname = "NestedTy";
        fields =
          [ { fname = "v3"; fty = Ctype.I32 }; { fname = "v4"; fty = Ctype.I32 } ];
      }
  in
  Ctype.declare t
    {
      Ctype.sname = "S";
      fields =
        [
          { fname = "v1"; fty = Ctype.I32 };
          { fname = "array"; fty = Ctype.Array (Ctype.Struct "NestedTy", 2) };
          { fname = "v5"; fty = Ctype.I32 };
        ];
    }

(* ---- MAC ---- *)

let test_mac () =
  let key = 0xABCDL in
  let m = Mac.compute ~key [ 1L; 2L; 3L ] in
  Alcotest.(check bool) "48-bit" true (Int64.compare m (Bits.mask 48) <= 0);
  Alcotest.(check bool) "verifies" true (Mac.verify ~key [ 1L; 2L; 3L ] ~mac:m);
  Alcotest.(check bool) "field change detected" false
    (Mac.verify ~key [ 1L; 2L; 4L ] ~mac:m);
  Alcotest.(check bool) "order sensitive" false
    (Mac.verify ~key [ 2L; 1L; 3L ] ~mac:m);
  Alcotest.(check bool) "key sensitive" false
    (Mac.verify ~key:0x9999L [ 1L; 2L; 3L ] ~mac:m)

(* ---- layout interning ---- *)

let test_intern_layout () =
  let _, meta = mk_ctx () in
  let p1 = Meta.intern_layout meta tenv_s (Ctype.Struct "S") in
  let p2 = Meta.intern_layout meta tenv_s (Ctype.Struct "S") in
  Alcotest.(check int64) "shared per type" p1 p2;
  Alcotest.(check int) "count header" 6 (Meta.layout_count meta p1);
  let e3 = Meta.read_element meta p1 3 in
  Alcotest.(check int) "element 3 parent" 2 e3.Layout.parent;
  (* scalar types get no table *)
  Alcotest.(check int64) "scalar no table" 0L
    (Meta.intern_layout meta tenv_s Ctype.I64)

(* ---- local-offset scheme ---- *)

let test_local_offset_roundtrip () =
  let _, meta = mk_ctx () in
  let lt = Meta.intern_layout meta tenv_s (Ctype.Struct "S") in
  let p = Meta.Local_offset.register meta ~base:0x2000L ~size:24 ~layout_ptr:lt in
  Alcotest.(check bool) "scheme" true (Tag.scheme p = Tag.Local_offset);
  (match Meta.Local_offset.lookup meta p with
  | Ok om, fetches ->
    Alcotest.(check int64) "base" 0x2000L om.Meta.obj_base;
    Alcotest.(check int) "size" 24 om.obj_size;
    Alcotest.(check int64) "layout" lt om.layout_ptr;
    Alcotest.(check int) "two fetches" 2 (List.length fetches)
  | Error e, _ -> Alcotest.fail e);
  (* lookup from an interior pointer after ifpadd *)
  let q = Insn.ifpadd p ~delta:20L ~bounds:(Bounds.of_base_size 0x2000L 24) in
  match Meta.Local_offset.lookup meta q with
  | Ok om, _ -> Alcotest.(check int64) "interior base" 0x2000L om.Meta.obj_base
  | Error e, _ -> Alcotest.fail e

let test_local_offset_tamper_detected () =
  let mem, meta = mk_ctx () in
  let p = Meta.Local_offset.register meta ~base:0x2000L ~size:24 ~layout_ptr:0L in
  (* corrupt the size field (metadata at 0x2020: 24 -> align 32) *)
  let meta_addr = Tag.metadata_addr_local_offset p in
  Memory.write_u16 mem meta_addr 900;
  match Meta.Local_offset.lookup meta p with
  | Error _, _ -> ()
  | Ok _, _ -> Alcotest.fail "tampered metadata accepted"

let test_local_offset_deregister () =
  let _, meta = mk_ctx () in
  let p = Meta.Local_offset.register meta ~base:0x2000L ~size:100 ~layout_ptr:0L in
  Meta.Local_offset.deregister meta p;
  match Meta.Local_offset.lookup meta p with
  | Error _, _ -> ()
  | Ok _, _ -> Alcotest.fail "deregistered metadata still valid"

let test_local_offset_limits () =
  Alcotest.(check bool) "1008 fits" true (Meta.Local_offset.fits ~size:1008);
  Alcotest.(check bool) "1009 does not" false (Meta.Local_offset.fits ~size:1009);
  Alcotest.(check bool) "0 does not" false (Meta.Local_offset.fits ~size:0);
  Alcotest.(check int) "footprint 24" (32 + 16) (Meta.Local_offset.footprint ~size:24)

(* ---- subheap scheme ---- *)

let test_subheap_roundtrip () =
  let _, meta = mk_ctx () in
  Meta.Subheap.set_creg meta 2
    (Some { Meta.Subheap.block_size_log2 = 12; metadata_offset = 0L });
  (* block at 0x3000 (4 KiB aligned), slots of 32 bytes from offset 32 *)
  Meta.Subheap.write_block_metadata meta ~creg:2 ~block_base:0x3000L
    ~slot_start:32 ~slot_end:4064 ~slot_size:32 ~obj_size:24 ~layout_ptr:0L;
  (* pointer into slot 3 *)
  let addr = Int64.add 0x3000L (Int64.of_int (32 + (3 * 32) + 8)) in
  let p = Meta.Subheap.tag_pointer ~creg:2 ~addr in
  (match Meta.Subheap.lookup meta p with
  | Ok om, fetches, _div ->
    Alcotest.(check int64) "slot base" (Int64.add 0x3000L 128L) om.Meta.obj_base;
    Alcotest.(check int) "obj size" 24 om.obj_size;
    Alcotest.(check int) "four fetches" 4 (List.length fetches)
  | Error e, _, _ -> Alcotest.fail e);
  (* pointer into the metadata area itself is rejected *)
  let bad = Meta.Subheap.tag_pointer ~creg:2 ~addr:(Int64.add 0x3000L 8L) in
  match Meta.Subheap.lookup meta bad with
  | Error _, _, _ -> ()
  | Ok _, _, _ -> Alcotest.fail "metadata-area pointer accepted"

let test_subheap_unconfigured_creg () =
  let _, meta = mk_ctx () in
  let p = Meta.Subheap.tag_pointer ~creg:9 ~addr:0x5000L in
  match Meta.Subheap.lookup meta p with
  | Error _, _, _ -> ()
  | Ok _, _, _ -> Alcotest.fail "unconfigured creg accepted"

let test_subheap_tamper () =
  let mem, meta = mk_ctx () in
  Meta.Subheap.set_creg meta 0
    (Some { Meta.Subheap.block_size_log2 = 12; metadata_offset = 0L });
  Meta.Subheap.write_block_metadata meta ~creg:0 ~block_base:0x4000L
    ~slot_start:32 ~slot_end:4064 ~slot_size:64 ~obj_size:48 ~layout_ptr:0L;
  Memory.write_u32 mem (Int64.add 0x4000L 12L) 64L (* obj_size 48->64 *);
  let p = Meta.Subheap.tag_pointer ~creg:0 ~addr:(Int64.add 0x4000L 64L) in
  match Meta.Subheap.lookup meta p with
  | Error e, _, _ ->
    Alcotest.(check string) "mac mismatch" "MAC mismatch" e
  | Ok _, _, _ -> Alcotest.fail "tampered block metadata accepted"

(* ---- global-table scheme ---- *)

let test_global_table_roundtrip () =
  let _, meta = mk_ctx () in
  match Meta.Global_table.register meta ~base:0x6000L ~size:4096 ~layout_ptr:0L with
  | None -> Alcotest.fail "table full"
  | Some p -> (
    Alcotest.(check bool) "scheme" true (Tag.scheme p = Tag.Global_table);
    (match Meta.Global_table.lookup meta p with
    | Ok om, _ ->
      Alcotest.(check int64) "base" 0x6000L om.Meta.obj_base;
      Alcotest.(check int) "size" 4096 om.obj_size
    | Error e, _ -> Alcotest.fail e);
    Meta.Global_table.deregister meta p;
    match Meta.Global_table.lookup meta p with
    | Error _, _ -> ()
    | Ok _, _ -> Alcotest.fail "freed row still valid")

let test_global_table_exhaustion () =
  let _, meta = mk_ctx () in
  (* 256 entries, row 0 reserved: 255 registrations possible *)
  let rec fill n =
    match
      Meta.Global_table.register meta ~base:(Int64.of_int (0x10000 + (n * 64)))
        ~size:64 ~layout_ptr:0L
    with
    | Some _ -> fill (n + 1)
    | None -> n
  in
  Alcotest.(check int) "255 rows" 255 (fill 0);
  Alcotest.(check int) "rows in use" 255 (Meta.Global_table.rows_in_use meta)

(* ---- promote ---- *)

let test_promote_bypasses () =
  let _, meta = mk_ctx () in
  let null = Tag.make_legacy 0L in
  let r = Promote.run meta null in
  Alcotest.(check bool) "null bypass" true (r.Promote.outcome = Promote.Bypass_null);
  let legacy = Tag.make_legacy 0x1234L in
  let r = Promote.run meta legacy in
  Alcotest.(check bool) "legacy bypass" true
    (r.Promote.outcome = Promote.Bypass_legacy);
  Alcotest.(check bool) "no bounds" true (r.Promote.bounds = Bounds.no_bounds);
  let poisoned = Tag.with_poison legacy Tag.Invalid in
  let r = Promote.run meta poisoned in
  Alcotest.(check bool) "poisoned bypass" true
    (r.Promote.outcome = Promote.Bypass_poisoned);
  Alcotest.(check bool) "none accessed metadata" true
    (not (Promote.accessed_metadata r))

let test_promote_local_offset_narrowing () =
  let _, meta = mk_ctx () in
  let lt = Meta.intern_layout meta tenv_s (Ctype.Struct "S") in
  let p = Meta.Local_offset.register meta ~base:0x2000L ~size:24 ~layout_ptr:lt in
  (* derive a pointer to S.array[1].v4: offset 4+8+4 = 16, index 4;
     ifpadd keeps the granule offset pointing at the metadata *)
  let q = Insn.ifpadd p ~delta:16L ~bounds:Bounds.no_bounds in
  let q = Insn.ifpidx q 4 in
  let r = Promote.run meta q in
  (match r.Promote.outcome with
  | Promote.Retrieved Promote.Narrowed -> ()
  | _ -> Alcotest.fail "expected narrowing");
  Alcotest.(check bool) "narrowed to v4" true
    (Bounds.equal r.Promote.bounds
       (Bounds.make ~lo:(Int64.add 0x2000L 16L) ~hi:(Int64.add 0x2000L 20L)));
  Alcotest.(check bool) "walker fetched elements" true (r.Promote.walk_elems >= 2);
  Alcotest.(check int) "mac checked" 1 r.Promote.mac_checks

let test_promote_no_layout_falls_back () =
  let _, meta = mk_ctx () in
  let p = Meta.Local_offset.register meta ~base:0x2100L ~size:24 ~layout_ptr:0L in
  let q = Insn.ifpidx (Insn.ifpadd p ~delta:8L ~bounds:Bounds.no_bounds) 2 in
  let r = Promote.run meta q in
  (match r.Promote.outcome with
  | Promote.Retrieved (Promote.Narrow_failed _) -> ()
  | _ -> Alcotest.fail "expected narrow failure");
  Alcotest.(check bool) "object bounds" true
    (Bounds.equal r.Promote.bounds (Bounds.make ~lo:0x2100L ~hi:(Int64.add 0x2100L 24L)))

(* the global-table tag holds a 12-bit row index and no subobject index:
   a published layout table is never walked, and promote returns
   whole-object bounds *)
let test_promote_global_table_never_narrows () =
  let _, meta = mk_ctx () in
  let lt = Meta.intern_layout meta tenv_s (Ctype.Struct "S") in
  match Meta.Global_table.register meta ~base:0x6000L ~size:24 ~layout_ptr:lt with
  | None -> Alcotest.fail "table full"
  | Some p ->
    (* the pointer to S.array[1].v4 that narrows under local offset *)
    let q = Insn.ifpidx (Insn.ifpadd p ~delta:16L ~bounds:Bounds.no_bounds) 4 in
    let r = Promote.run meta q in
    Alcotest.(check bool) "retrieved, no subobject" true
      (r.Promote.outcome = Promote.Retrieved Promote.No_subobject);
    Alcotest.(check bool) "whole-object bounds" true
      (Bounds.equal r.Promote.bounds (Bounds.make ~lo:0x6000L ~hi:0x6018L));
    Alcotest.(check int) "no walk performed" 0 r.Promote.walk_elems

let test_promote_invalid_metadata_poisons () =
  let _, meta = mk_ctx () in
  (* a fabricated local-offset pointer with no metadata behind it *)
  let p = Tag.make_local_offset ~addr:0x7000L ~granule_off:5 ~subobj:0 in
  let r = Promote.run meta p in
  (match r.Promote.outcome with
  | Promote.Metadata_invalid _ -> ()
  | _ -> Alcotest.fail "expected invalid metadata");
  Alcotest.(check bool) "output poisoned" true (Tag.poison r.Promote.ptr = Tag.Invalid)

let test_promote_oob_pointer_recovers () =
  let _, meta = mk_ctx () in
  let p = Meta.Local_offset.register meta ~base:0x2200L ~size:24 ~layout_ptr:0L in
  (* one-past-the-end pointer: ifpadd marks it recoverable *)
  let q =
    Insn.ifpadd p ~delta:24L ~bounds:(Bounds.of_base_size 0x2200L 24)
  in
  let r = Promote.run meta q in
  Alcotest.(check bool) "metadata still found" true (Promote.accessed_metadata r);
  Alcotest.(check bool) "stays oob (not valid)" true
    (Tag.poison r.Promote.ptr = Tag.Oob)

(* property: promote on a pointer anywhere inside a registered object
   returns bounds that contain the address *)
let prop_promote_contains_addr =
  QCheck.Test.make ~count:200 ~name:"promote bounds contain in-object address"
    QCheck.(pair (int_bound 23) (int_bound 5))
    (fun (off, idx) ->
      let _, meta = mk_ctx () in
      let lt = Meta.intern_layout meta tenv_s (Ctype.Struct "S") in
      let p = Meta.Local_offset.register meta ~base:0x2000L ~size:24 ~layout_ptr:lt in
      let q =
        Insn.ifpidx
          (Insn.ifpadd p ~delta:(Int64.of_int off) ~bounds:Bounds.no_bounds)
          idx
      in
      let r = Promote.run meta q in
      match r.Promote.bounds with
      | Bounds.No_bounds -> false
      | Bounds.Bounds { lo; hi } ->
        (* bounds always stay within the object *)
        Int64.compare 0x2000L lo <= 0
        && Int64.compare hi (Int64.add 0x2000L 24L) <= 0)

let tests =
  [
    Alcotest.test_case "mac" `Quick test_mac;
    Alcotest.test_case "layout interning" `Quick test_intern_layout;
    Alcotest.test_case "local-offset roundtrip" `Quick test_local_offset_roundtrip;
    Alcotest.test_case "local-offset tamper" `Quick test_local_offset_tamper_detected;
    Alcotest.test_case "local-offset deregister" `Quick test_local_offset_deregister;
    Alcotest.test_case "local-offset limits" `Quick test_local_offset_limits;
    Alcotest.test_case "subheap roundtrip" `Quick test_subheap_roundtrip;
    Alcotest.test_case "subheap unconfigured creg" `Quick
      test_subheap_unconfigured_creg;
    Alcotest.test_case "subheap tamper" `Quick test_subheap_tamper;
    Alcotest.test_case "global-table roundtrip" `Quick test_global_table_roundtrip;
    Alcotest.test_case "global-table exhaustion" `Quick test_global_table_exhaustion;
    Alcotest.test_case "promote bypasses" `Quick test_promote_bypasses;
    Alcotest.test_case "promote narrows (local offset)" `Quick
      test_promote_local_offset_narrowing;
    Alcotest.test_case "promote without layout" `Quick
      test_promote_no_layout_falls_back;
    Alcotest.test_case "promote global table never narrows" `Quick
      test_promote_global_table_never_narrows;
    Alcotest.test_case "promote invalid metadata" `Quick
      test_promote_invalid_metadata_poisons;
    Alcotest.test_case "promote oob recoverable" `Quick
      test_promote_oob_pointer_recovers;
    QCheck_alcotest.to_alcotest prop_promote_contains_addr;
  ]
