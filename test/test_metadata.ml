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

(* a table forged in simulated memory: a huge [count] and a parent
   cycle (v4 -> array -> v4). The walker must reject the cycle at its
   first backward edge, not follow it [count] times. *)
let test_promote_forged_table_bounded () =
  let mem, meta = mk_ctx () in
  let lt = Meta.intern_layout meta tenv_s (Ctype.Struct "S") in
  Memory.write_u32 mem (Int64.add lt 4L) 0x7FFF_FFFFL;
  (* element 2 is [array], the parent of element 4 ([array[i].v4]) *)
  Memory.write_u16 mem (Int64.add lt (Int64.of_int (16 + (2 * 16)))) 4;
  let p = Meta.Local_offset.register meta ~base:0x2000L ~size:24 ~layout_ptr:lt in
  let q = Insn.ifpidx (Insn.ifpadd p ~delta:16L ~bounds:Bounds.no_bounds) 4 in
  let r = Promote.run meta q in
  (match r.Promote.outcome with
  | Promote.Retrieved (Promote.Narrow_failed "parent cycle") -> ()
  | _ -> Alcotest.fail "expected a parent-cycle narrow failure");
  Alcotest.(check bool) "object bounds" true
    (Bounds.equal r.Promote.bounds (Bounds.make ~lo:0x2000L ~hi:(Int64.add 0x2000L 24L)));
  Alcotest.(check bool) "walk bounded" true (r.Promote.walk_elems <= 1)

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
        0x2000 <= lo && hi <= 0x2000 + 24)

(* ---- encoding round-trips ---- *)

(* register then lookup returns what was registered, for each scheme,
   with temporal mode on and off and addresses up to the 44-bit cap *)

let addr_cap = Int64.shift_left 1L Tag.addr_bits

let meta_ctx ~temporal =
  let mem = Memory.create () in
  Memory.map mem ~base:0x200000L ~size:(1 lsl 16);
  Memory.map mem ~base:0x300000L ~size:(16 * Tag.global_table_entries);
  let meta =
    Meta.create ~temporal ~memory:mem ~mac_key:0x0DD_BA11L
      ~layout_region:(0x200000L, 1 lsl 16)
      ~global_table:(0x300000L, Tag.global_table_entries) ()
  in
  (mem, meta)

(* an address in [lo, hi]: uniform, or within 64 KiB of either end *)
let addr_in lo hi =
  let open QCheck.Gen in
  let span = Int64.to_int (Int64.sub hi lo) in
  let near = min span 0xFFFF in
  let+ off =
    oneof [ int_bound span; int_bound near; map (fun d -> span - d) (int_bound near) ]
  in
  Int64.add lo (Int64.of_int off)

let layout_ptr_gen =
  QCheck.Gen.oneof [ QCheck.Gen.return 0L; addr_in 1L (Int64.pred addr_cap) ]

let expect ~base ~size ~layout_ptr ~gen ~freed =
  Ok { Meta.obj_base = base; obj_size = size; layout_ptr; gen; freed }

(* [frees] free/re-register cycles on one place, as a reused stack slot
   or a recycled block: in temporal mode each moves the generation *)
let frees_gen = QCheck.Gen.int_bound (Tag.gen_states + 4)

let prop_local_offset_roundtrip =
  let gen =
    let open QCheck.Gen in
    let* temporal = bool and* frees = frees_gen in
    let* size = int_range 1 Tag.local_offset_max_object in
    let footprint = Meta.Local_offset.footprint ~size in
    let* base =
      addr_in (Int64.of_int Tag.granule)
        (Int64.sub addr_cap (Int64.of_int footprint))
    in
    let+ layout_ptr = layout_ptr_gen in
    (temporal, frees, Bits.align_down64 base Tag.granule, size, layout_ptr)
  in
  let print (temporal, frees, base, size, layout_ptr) =
    Printf.sprintf "temporal=%b frees=%d base=0x%Lx size=%d layout=0x%Lx"
      temporal frees base size layout_ptr
  in
  QCheck.Test.make ~count:300 ~name:"local-offset register/lookup round-trip"
    (QCheck.make ~print gen)
    (fun (temporal, frees, base, size, layout_ptr) ->
      let mem, meta = meta_ctx ~temporal in
      Memory.map mem ~base ~size:(Meta.Local_offset.footprint ~size);
      let register () =
        Meta.Local_offset.register meta ~base ~size ~layout_ptr
      in
      let p = ref (register ()) in
      for _ = 1 to frees do
        if temporal then ignore (Meta.Local_offset.deregister_temporal meta !p)
        else Meta.Local_offset.deregister meta !p;
        p := register ()
      done;
      let gen = if temporal then frees mod Tag.gen_states else 0 in
      let lookup () = fst (Meta.Local_offset.lookup meta !p) in
      lookup () = expect ~base ~size ~layout_ptr ~gen ~freed:false
      && Tag.gen !p = gen
      && ((not temporal)
         || Meta.Local_offset.deregister_temporal meta !p = `Freed_ok
            && lookup ()
               = expect ~base ~size ~layout_ptr
                   ~gen:((frees + 1) mod Tag.gen_states)
                   ~freed:true))

(* one block of one subheap control register, and a pointer into one of
   its slots *)
type subheap_case = {
  temporal : bool;
  frees : int;
  creg : int;
  log2 : int;
  meta_at_end : bool;  (** metadata at the block's end, else its start *)
  block_base : int64;
  slot_size : int;
  slots : int;
  size : int;
  slot : int;
  off : int;  (** byte offset of the pointer into its slot *)
  layout_ptr : int64;
}

let prop_subheap_roundtrip =
  let record = Meta.Subheap.temporal_metadata_size in
  let gen =
    let open QCheck.Gen in
    let* temporal = bool and* frees = frees_gen in
    let* creg = int_bound (Meta.Subheap.n_cregs - 1) in
    let* log2 = int_range 12 16 and* meta_at_end = bool in
    let block = 1 lsl log2 in
    let* block_base = addr_in 0L (Int64.sub addr_cap (Int64.of_int block)) in
    let* slot_size = int_range 16 512 in
    let slots = min 256 ((block - record) / slot_size) in
    let+ size = int_range 1 slot_size
    and+ slot = int_bound (slots - 1)
    and+ off = int_bound (slot_size - 1)
    and+ layout_ptr = layout_ptr_gen in
    let block_base = Bits.align_down64 block_base block in
    { temporal; frees; creg; log2; meta_at_end; block_base; slot_size; slots;
      size; slot; off; layout_ptr }
  in
  let print c =
    Printf.sprintf
      "temporal=%b frees=%d creg=%d log2=%d meta_at_end=%b block=0x%Lx \
       slot_size=%d slots=%d size=%d slot=%d off=%d layout=0x%Lx"
      c.temporal c.frees c.creg c.log2 c.meta_at_end c.block_base c.slot_size
      c.slots c.size c.slot c.off c.layout_ptr
  in
  QCheck.Test.make ~count:300 ~name:"subheap register/lookup round-trip"
    (QCheck.make ~print gen)
    (fun ({ temporal; frees; creg; block_base; slot_size; size; slot; layout_ptr;
            _ } as c) ->
      let mem, meta = meta_ctx ~temporal in
      let metadata_offset = if c.meta_at_end then (1 lsl c.log2) - record else 0 in
      let slot_start = if c.meta_at_end then 0 else record in
      Memory.map mem
        ~base:(Int64.add block_base (Int64.of_int metadata_offset))
        ~size:record;
      Meta.Subheap.set_creg meta creg
        (Some
           {
             Meta.Subheap.block_size_log2 = c.log2;
             metadata_offset = Int64.of_int metadata_offset;
           });
      let write () =
        Meta.Subheap.write_block_metadata meta ~creg ~block_base ~slot_start
          ~slot_end:(slot_start + (c.slots * slot_size))
          ~slot_size ~obj_size:size ~layout_ptr
      in
      write ();
      for _ = 1 to frees do
        Meta.Subheap.clear_block_metadata meta ~creg ~block_base;
        write ()
      done;
      let base =
        Int64.add block_base (Int64.of_int (slot_start + (slot * slot_size)))
      in
      let p =
        Meta.Subheap.tag_pointer ~creg ~addr:(Int64.add base (Int64.of_int c.off))
      in
      let gen = if temporal then frees mod Tag.gen_states else 0 in
      let lookup () =
        let r, _, _ = Meta.Subheap.lookup meta p in
        r
      in
      lookup () = expect ~base ~size ~layout_ptr ~gen ~freed:false
      && Meta.Subheap.block_gen meta ~creg ~block_base = gen
      && ((not temporal)
         || Meta.Subheap.slot_mark_freed meta ~creg ~block_base ~slot = `Freed_ok
            && lookup () = expect ~base ~size ~layout_ptr ~gen ~freed:true))

let prop_global_table_roundtrip =
  let obj =
    let open QCheck.Gen in
    let* base = addr_in 1L (Int64.pred addr_cap) in
    let* size = int_range 1 ((1 lsl 32) - 1) in
    let+ layout_ptr = layout_ptr_gen in
    (base, size, layout_ptr)
  in
  let print (temporal, objs) =
    Printf.sprintf "temporal=%b [%s]" temporal
      (String.concat "; "
         (List.map
            (fun (b, s, l) -> Printf.sprintf "0x%Lx/%d/0x%Lx" b s l)
            objs))
  in
  QCheck.Test.make ~count:300 ~name:"global-table register/lookup round-trip"
    QCheck.(make ~print Gen.(pair bool (list_size (int_range 1 8) obj)))
    (fun (temporal, objs) ->
      let _, meta = meta_ctx ~temporal in
      let rows =
        List.map
          (fun (base, size, layout_ptr) ->
            (Meta.Global_table.register meta ~base ~size ~layout_ptr, base, size, layout_ptr))
          objs
      in
      let lookup p = fst (Meta.Global_table.lookup meta p) in
      List.for_all
        (fun (p, base, size, layout_ptr) ->
          match p with
          | None -> false
          | Some p -> (
            lookup p = expect ~base ~size ~layout_ptr ~gen:0 ~freed:false
            &&
            (* the freed row: quarantined with the next generation in
               temporal mode, gone otherwise *)
            if temporal then
              Meta.Global_table.deregister_temporal meta p = `Freed_ok
              && lookup p = expect ~base ~size ~layout_ptr ~gen:1 ~freed:true
            else begin
              Meta.Global_table.deregister meta p;
              match lookup p with Error _ -> true | Ok _ -> false
            end))
        rows)

(* The live-entry registry serves the fault injector only: a context
   built without it resolves every scheme's pointers exactly as one
   built with it, before and after the objects are freed, and lists no
   entries. *)
let test_registry_off_same_results () =
  let run registry =
    let mem = Memory.create () in
    Memory.map mem ~base:0x1000L ~size:(1 lsl 20);
    Memory.map mem ~base:0x200000L ~size:(1 lsl 16);
    Memory.map mem ~base:0x300000L ~size:(4096 * 16);
    let meta =
      Meta.create ~registry ~memory:mem ~mac_key:0x1234_5678L
        ~layout_region:(0x200000L, 1 lsl 16)
        ~global_table:(0x300000L, 256) ()
    in
    let lt = Meta.intern_layout meta tenv_s (Ctype.Struct "S") in
    let local = Meta.Local_offset.register meta ~base:0x1000L ~size:24 ~layout_ptr:lt in
    let narrow = Insn.ifpidx (Insn.ifpadd local ~delta:12L ~bounds:Bounds.no_bounds) 3 in
    Meta.Subheap.set_creg meta 2
      (Some { Meta.Subheap.block_size_log2 = 12; metadata_offset = 0L });
    Meta.Subheap.write_block_metadata meta ~creg:2 ~block_base:0x3000L
      ~slot_start:32 ~slot_end:4064 ~slot_size:32 ~obj_size:24 ~layout_ptr:lt;
    let sub = Meta.Subheap.tag_pointer ~creg:2 ~addr:0x3088L in
    let global =
      Option.get (Meta.Global_table.register meta ~base:0x6000L ~size:4096 ~layout_ptr:0L)
    in
    let results () =
      ( Meta.Local_offset.lookup meta local,
        Meta.Subheap.lookup meta sub,
        Meta.Global_table.lookup meta global,
        List.map (Promote.run meta) [ local; narrow; sub; global ] )
    in
    let live = results () and entries = Meta.live_entries meta in
    Meta.Local_offset.deregister meta local;
    Meta.Subheap.clear_block_metadata meta ~creg:2 ~block_base:0x3000L;
    Meta.Global_table.deregister meta global;
    (live, entries, results (), Meta.live_entries meta)
  in
  let live, entries, freed, after = run true in
  let live', entries', freed', after' = run false in
  let _, _, _, promotes = live in
  Alcotest.(check bool) "every live pointer resolves" true
    (List.for_all
       (fun r -> match r.Promote.outcome with Promote.Retrieved _ -> true | _ -> false)
       promotes);
  Alcotest.(check bool) "same results while live" true (live = live');
  Alcotest.(check bool) "same results once freed" true (freed = freed');
  Alcotest.(check int) "registry lists all three records" 3 (List.length entries);
  Alcotest.(check int) "and none once freed" 0 (List.length after);
  Alcotest.(check bool) "no registry, no entries" true (entries' = [] && after' = [])

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
    Alcotest.test_case "promote forged table bounded" `Quick
      test_promote_forged_table_bounded;
    Alcotest.test_case "promote global table never narrows" `Quick
      test_promote_global_table_never_narrows;
    Alcotest.test_case "promote invalid metadata" `Quick
      test_promote_invalid_metadata_poisons;
    Alcotest.test_case "promote oob recoverable" `Quick
      test_promote_oob_pointer_recovers;
    Alcotest.test_case "promote without the registry" `Quick
      test_registry_off_same_results;
    QCheck_alcotest.to_alcotest prop_promote_contains_addr;
    QCheck_alcotest.to_alcotest prop_local_offset_roundtrip;
    QCheck_alcotest.to_alcotest prop_subheap_roundtrip;
    QCheck_alcotest.to_alcotest prop_global_table_roundtrip;
  ]
