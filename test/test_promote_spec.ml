(* The promote core against a frozen specification: [Promote.run] and
   its metadata lookups as they stood before the list-free rewrite live
   in test/spec. The VM's engines all call the same production
   [Promote], so engine differential testing cannot check it; this does.
   Each case builds a fresh metadata context, registers one object under
   one scheme, derives a pointer (valid, out of bounds, poisoned, freed,
   MAC-tampered, with a forged layout table, or with its metadata in an
   unmapped page) and requires both implementations to agree on the
   outcome, pointer, bounds, fetch list, division, walk and MAC counts —
   or to raise the same memory fault. *)

open Core
module SP = Spec_promote

let tenv =
  let t = Ctype.empty_tenv in
  let t =
    Ctype.declare t
      {
        Ctype.sname = "Pair";
        fields = [ { fname = "a"; fty = Ctype.I32 }; { fname = "b"; fty = Ctype.I32 } ];
      }
  in
  let t =
    Ctype.declare t
      {
        Ctype.sname = "S";
        fields =
          [
            { fname = "v1"; fty = Ctype.I32 };
            { fname = "arr"; fty = Ctype.Array (Ctype.Struct "Pair", 3) };
            { fname = "v5"; fty = Ctype.I64 };
          ];
      }
  in
  Ctype.declare t
    {
      Ctype.sname = "Outer";
      fields =
        [
          { fname = "hdr"; fty = Ctype.I64 };
          { fname = "inner"; fty = Ctype.Array (Ctype.Struct "S", 2) };
          { fname = "buf"; fty = Ctype.Array (Ctype.I8, 12) };
          { fname = "tail"; fty = Ctype.Struct "Pair" };
        ];
    }

(* object types: with and without a layout table, arrays of aggregates
   (array snapping) and nesting two levels deep *)
let types =
  [|
    Ctype.Struct "S";
    Ctype.Struct "Outer";
    Ctype.Array (Ctype.Struct "Pair", 5);
    Ctype.Array (Ctype.I64, 4);
    Ctype.Struct "Pair";
  |]

type target =
  | Valid
  | Out_of_bounds
  | Poisoned of int  (* poison bits: 1 Oob, 2 Invalid, 3 Freed *)
  | Freed
  | Tampered of int  (* byte of the record to flip *)
  | Forged_table
  | Unmapped_meta

type case = {
  temporal : bool;
  narrow : bool;
  scheme : int;  (* 0 local offset, 1 subheap, 2 global table *)
  ty : int;
  target : target;
  off : int;
  idx : int;
  seed : int;
}

let target_name = function
  | Valid -> "valid"
  | Out_of_bounds -> "out-of-bounds"
  | Poisoned k -> Printf.sprintf "poisoned:%d" k
  | Freed -> "freed"
  | Tampered b -> Printf.sprintf "tampered@%d" b
  | Forged_table -> "forged-table"
  | Unmapped_meta -> "unmapped-metadata"

let print c =
  Printf.sprintf "%s %s %s ty=%d off=%d idx=%d seed=%d%s%s"
    (match c.scheme with 0 -> "local" | 1 -> "subheap" | _ -> "global")
    (target_name c.target)
    (Ctype.to_string tenv types.(c.ty))
    c.ty c.off c.idx c.seed
    (if c.temporal then " temporal" else "")
    (if c.narrow then "" else " no-narrowing")

let heap = 0x10000L
let layout_region = 0x200000L
let gt_base = 0x300000L
let gt_entries = 256
let forged_region = 0x400000L (* one mapped page; the next is unmapped *)
let unmapped = 0x900000L

(* a random layout table at the end of the forged page, so long tables
   run into the unmapped page after it *)
let write_forged mem rng =
  let count = Prng.int_in rng 1 12 in
  let slack = Prng.int rng 4 in
  let bytes = 16 + (count * 16) in
  let addr =
    Int64.add forged_region (Int64.of_int (4096 - bytes + (slack * 8)))
  in
  let w32 a v = try Memory.write_u32 mem a (Int64.of_int v) with Memory.Fault _ -> () in
  let w16 a v = try Memory.write_u16 mem a v with Memory.Fault _ -> () in
  w32 addr (if Prng.int rng 8 = 0 then 0x12345678 else 0x4C544231);
  w32 (Int64.add addr 4L) (if Prng.int rng 8 = 0 then 0 else count);
  for i = 0 to count - 1 do
    let e = Int64.add addr (Int64.of_int (16 + (i * 16))) in
    (* mostly well-formed parents, sometimes a cycle *)
    let parent =
      if i = 0 then 0
      else if Prng.int rng 6 = 0 then Prng.int rng (count + 1)
      else Prng.int rng i
    in
    let base = Prng.int rng 48 in
    w16 e parent;
    w32 (Int64.add e 4L) base;
    w32 (Int64.add e 8L) (base + Prng.int rng 40);
    w32 (Int64.add e 12L) (Prng.int rng 32)
  done;
  match Prng.int rng 6 with
  | 0 -> unmapped (* the header read faults *)
  | 1 -> Int64.logor addr (Int64.shift_left 1L 63) (* bits above 48 *)
  | _ -> addr

type world = { meta : Meta.t; ptr : int64 }

let build c =
  let rng = Prng.create (Int64.of_int c.seed) in
  let mem = Memory.create () in
  Memory.map mem ~base:heap ~size:(1 lsl 20);
  Memory.map mem ~base:layout_region ~size:(1 lsl 16);
  Memory.map mem ~base:gt_base ~size:(gt_entries * 16);
  Memory.map mem ~base:forged_region ~size:4096;
  let meta =
    Meta.create ~temporal:c.temporal ~memory:mem ~mac_key:0x5EED_1234L
      ~layout_region:(layout_region, 1 lsl 16)
      ~global_table:(gt_base, gt_entries) ()
  in
  let ty = types.(c.ty) in
  let size = Ctype.sizeof tenv ty in
  let layout_ptr =
    if c.target = Forged_table then write_forged mem rng
    else Meta.intern_layout meta tenv ty
  in
  let n_elems = Layout.length (Layout.build tenv ty) in
  (* register the object; [record] is its metadata address and size *)
  let p, record =
    match c.scheme with
    | 0 ->
      let base = Int64.add heap 0x1000L in
      let p = Meta.Local_offset.register meta ~base ~size ~layout_ptr in
      (p, (Tag.metadata_addr_local_offset p, 16))
    | 1 ->
      let block_base = Int64.add heap 0x4000L in
      Meta.Subheap.set_creg meta 1
        (Some { Meta.Subheap.block_size_log2 = 12; metadata_offset = 0L });
      let slot_size = Bits.align_up size 16 in
      let slot_start = 64 in
      let slots = (4096 - slot_start) / slot_size in
      Meta.Subheap.write_block_metadata meta ~creg:1 ~block_base ~slot_start
        ~slot_end:(slot_start + (slots * slot_size))
        ~slot_size ~obj_size:size ~layout_ptr;
      let slot = c.seed mod slots in
      let addr =
        Int64.add block_base (Int64.of_int (slot_start + (slot * slot_size)))
      in
      (Meta.Subheap.tag_pointer ~creg:1 ~addr, (block_base, Meta.Subheap.record_size meta))
    | _ ->
      let base = Int64.add heap 0x8000L in
      let p =
        Option.get (Meta.Global_table.register meta ~base ~size ~layout_ptr)
      in
      (p, (Int64.add gt_base (Int64.of_int (Tag.table_index p * 16)), 16))
  in
  let delta =
    match c.target with
    | Out_of_bounds -> size + (c.off mod 64)
    | _ -> c.off mod size
  in
  let idx = if c.target = Forged_table then c.idx mod 16 else c.idx mod (n_elems + 2) in
  let q =
    Insn.ifpidx (Insn.ifpadd p ~delta:(Int64.of_int delta) ~bounds:Bounds.no_bounds) idx
  in
  let q =
    match c.target with
    | Poisoned 1 -> Tag.with_poison q Tag.Oob
    | Poisoned 2 -> Tag.with_poison q Tag.Invalid
    | Poisoned _ -> Tag.with_poison q Tag.Freed
    | Freed ->
      (match (c.scheme, c.temporal) with
      | 0, false -> Meta.Local_offset.deregister meta p
      | 0, true -> ignore (Meta.Local_offset.deregister_temporal meta p)
      | 1, false ->
        Meta.Subheap.clear_block_metadata meta ~creg:1 ~block_base:(fst record)
      | 1, true ->
        let off = Int64.to_int (Int64.sub (Tag.addr p) (fst record)) in
        let slot = (off - 64) / Bits.align_up size 16 in
        ignore
          (Meta.Subheap.slot_mark_freed meta ~creg:1 ~block_base:(fst record) ~slot)
      | _, false -> Meta.Global_table.deregister meta p
      | _, true -> ignore (Meta.Global_table.deregister_temporal meta p));
      q
    | Tampered b ->
      let addr, len = record in
      let a = Int64.add addr (Int64.of_int (b mod len)) in
      Memory.write_u8 mem a (Memory.read_u8 mem a lxor (1 lsl (c.seed mod 8)));
      q
    | Unmapped_meta -> (
      match c.scheme with
      | 0 ->
        Tag.make_local_offset ~addr:unmapped ~granule_off:(c.off mod 64)
          ~subobj:(c.idx mod 64)
      | 1 ->
        Meta.Subheap.set_creg meta 2
          (Some { Meta.Subheap.block_size_log2 = 12; metadata_offset = unmapped });
        Tag.make_subheap ~addr:(Tag.addr q) ~creg:2 ~subobj:(c.idx mod 256)
      | _ ->
        Tag.make_global_table ~addr:(Tag.addr q)
          ~index:(if c.seed mod 2 = 0 then 0 else gt_entries + (c.idx mod 1000)))
    | Valid | Out_of_bounds | Forged_table -> q
  in
  { meta; ptr = q }

(* ---- comparison ---- *)

let status_string = function
  | Promote.No_subobject -> "retrieved"
  | Promote.Narrowed -> "narrowed"
  | Promote.Narrow_failed m -> "narrow-failed:" ^ m

let outcome_string = function
  | Promote.Bypass_poisoned -> "bypass:poisoned"
  | Promote.Bypass_null -> "bypass:null"
  | Promote.Bypass_legacy -> "bypass:legacy"
  | Promote.Metadata_invalid m -> "invalid:" ^ m
  | Promote.Temporal_stale { freed; gen_ptr; gen_meta } ->
    Printf.sprintf "stale:%b:%d:%d" freed gen_ptr gen_meta
  | Promote.Retrieved s -> status_string s

let spec_outcome_string = function
  | SP.Promote.Bypass_poisoned -> "bypass:poisoned"
  | SP.Promote.Bypass_null -> "bypass:null"
  | SP.Promote.Bypass_legacy -> "bypass:legacy"
  | SP.Promote.Metadata_invalid m -> "invalid:" ^ m
  | SP.Promote.Temporal_stale { freed; gen_ptr; gen_meta } ->
    Printf.sprintf "stale:%b:%d:%d" freed gen_ptr gen_meta
  | SP.Promote.Retrieved SP.Promote.No_subobject -> "retrieved"
  | SP.Promote.Retrieved SP.Promote.Narrowed -> "narrowed"
  | SP.Promote.Retrieved (SP.Promote.Narrow_failed m) -> "narrow-failed:" ^ m

(* everything a promote result says, as one comparable string *)
let render ~ptr ~bounds ~outcome ~fetches ~divisions ~walk_elems ~mac_checks =
  Printf.sprintf "ptr=0x%Lx bounds=%s %s fetches=[%s] div=%d walk=%d mac=%d" ptr
    (Format.asprintf "%a" Bounds.pp bounds)
    outcome
    (String.concat "; "
       (List.map (fun (a, b) -> Printf.sprintf "0x%Lx/%d" a b) fetches))
    divisions walk_elems mac_checks

let guard f = match f () with s -> s | exception Memory.Fault (_, a) -> Printf.sprintf "fault 0x%Lx" a

let production ~narrow meta p =
  guard (fun () ->
      let r = Promote.run ~narrow meta p in
      render ~ptr:r.ptr ~bounds:r.bounds ~outcome:(outcome_string r.outcome)
        ~fetches:(List.map (fun { Meta.addr; bytes } -> (addr, bytes)) r.fetches)
        ~divisions:r.divisions ~walk_elems:r.walk_elems ~mac_checks:r.mac_checks)

(* the core on a shared, reused output record, as the VM drives it *)
let shared_out = Promote.create_out ()

let core ~narrow meta p =
  guard (fun () ->
      let fetches = ref [] in
      Promote.promote ~narrow meta shared_out p ~fetch:(fun a b ->
          fetches := (a, b) :: !fetches);
      let o = shared_out in
      render ~ptr:o.o_ptr ~bounds:o.o_bounds ~outcome:(outcome_string o.o_outcome)
        ~fetches:(List.rev !fetches) ~divisions:o.o_divisions
        ~walk_elems:o.o_walk_elems ~mac_checks:o.o_mac_checks)

let spec ~narrow meta p =
  guard (fun () ->
      let r = SP.Promote.run ~narrow meta p in
      render ~ptr:r.ptr ~bounds:r.bounds ~outcome:(spec_outcome_string r.outcome)
        ~fetches:(List.map (fun { SP.Meta.addr; bytes } -> (addr, bytes)) r.fetches)
        ~divisions:r.divisions ~walk_elems:r.walk_elems ~mac_checks:r.mac_checks)

(* the per-scheme lookup wrappers against the frozen lookups *)
let lookup_string r fetches =
  (match r with
  | Ok (b, s, l, g, f) -> Printf.sprintf "ok 0x%Lx %d 0x%Lx %d %b" b s l g f
  | Error e -> "error " ^ e)
  ^ String.concat "" (List.map (fun (a, b) -> Printf.sprintf " 0x%Lx/%d" a b) fetches)

let prod_lookup meta p =
  let conv (r, fs) =
    lookup_string
      (Result.map
         (fun (m : Meta.obj_meta) -> (m.obj_base, m.obj_size, m.layout_ptr, m.gen, m.freed))
         r)
      (List.map (fun { Meta.addr; bytes } -> (addr, bytes)) fs)
  in
  guard (fun () ->
      match Tag.scheme p with
      | Tag.Local_offset -> conv (Meta.Local_offset.lookup meta p)
      | Tag.Subheap ->
        let r, fs, d = Meta.Subheap.lookup meta p in
        conv (r, fs) ^ Printf.sprintf " div=%d" d
      | Tag.Global_table -> conv (Meta.Global_table.lookup meta p)
      | Tag.Legacy -> "legacy")

let spec_lookup meta p =
  let conv (r, fs) =
    lookup_string
      (Result.map
         (fun (m : SP.Meta.obj_meta) -> (m.obj_base, m.obj_size, m.layout_ptr, m.gen, m.freed))
         r)
      (List.map (fun { SP.Meta.addr; bytes } -> (addr, bytes)) fs)
  in
  guard (fun () ->
      match Tag.scheme p with
      | Tag.Local_offset -> conv (SP.Meta.Local_offset.lookup meta p)
      | Tag.Subheap ->
        let r, fs, d = SP.Meta.Subheap.lookup meta p in
        conv (r, fs) ^ Printf.sprintf " div=%d" d
      | Tag.Global_table -> conv (SP.Meta.Global_table.lookup meta p)
      | Tag.Legacy -> "legacy")

let judge c =
  let w = build c in
  let s = spec ~narrow:c.narrow w.meta w.ptr in
  let checks =
    [
      ("Promote.run", production ~narrow:c.narrow w.meta w.ptr, s);
      ("Promote.promote", core ~narrow:c.narrow w.meta w.ptr, s);
      ("lookup", prod_lookup w.meta w.ptr, spec_lookup w.meta w.ptr);
    ]
  in
  match List.find_opt (fun (_, a, b) -> not (String.equal a b)) checks with
  | None -> Ok s
  | Some (what, a, b) ->
    Error (Printf.sprintf "%s differs from the spec:\n  new  %s\n  spec %s" what a b)

let gen_case =
  let open QCheck.Gen in
  let* temporal = bool in
  let* narrow = frequency [ (3, return true); (1, return false) ] in
  let* scheme = int_bound 2 in
  let* ty = int_bound (Array.length types - 1) in
  let* target =
    frequency
      [
        (6, return Valid);
        (2, return Out_of_bounds);
        (1, map (fun k -> Poisoned k) (int_range 1 3));
        (2, return Freed);
        (2, map (fun b -> Tampered b) (int_bound 63));
        (4, return Forged_table);
        (1, return Unmapped_meta);
      ]
  in
  let* off = int_bound 4095 in
  let* idx = int_bound 300 in
  let* seed = int_bound 1_000_000 in
  return { temporal; narrow; scheme; ty; target; off; idx; seed }

let prop_agrees =
  QCheck.Test.make ~count:2000 ~name:"promote agrees with the frozen spec"
    (QCheck.make ~print gen_case) (fun c ->
      match judge c with Ok _ -> true | Error why -> QCheck.Test.fail_report why)

(* the property must reach every outcome class, or it checks less than
   it claims *)
let test_coverage () =
  let rand = Random.State.make [| 0xC0FE |] in
  let seen = Hashtbl.create 16 in
  for _ = 1 to 2000 do
    let c = QCheck.Gen.generate1 ~rand gen_case in
    match judge c with
    | Error why -> Alcotest.fail (print c ^ ": " ^ why)
    | Ok s ->
      let cls =
        List.find_opt
          (fun k -> Str.string_match (Str.regexp (".*" ^ Str.quote k)) s 0)
          [
            "bypass:poisoned"; "invalid:MAC mismatch"; "invalid:metadata page fault";
            "stale:"; "narrowed"; "narrow-failed:parent cycle";
            "narrow-failed:bad layout table header"; "narrow-failed:narrowing disabled";
            "narrow-failed:address outside object"; "retrieved"; "fault 0x";
            "invalid:row not in use"; "invalid:table index out of range";
          ]
      in
      Option.iter (fun k -> Hashtbl.replace seen k ()) cls
  done;
  List.iter
    (fun k ->
      if not (Hashtbl.mem seen k) then Alcotest.fail ("no case reached " ^ k))
    [
      "bypass:poisoned"; "invalid:MAC mismatch"; "invalid:metadata page fault";
      "stale:"; "narrowed"; "narrow-failed:parent cycle";
      "narrow-failed:bad layout table header"; "narrow-failed:narrowing disabled";
      "retrieved"; "fault 0x"; "invalid:row not in use";
    ]

let tests =
  [
    Alcotest.test_case "outcome coverage" `Quick test_coverage;
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x9A0 |]) prop_agrees;
  ]
