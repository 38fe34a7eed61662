(* Tests for the pointer-tag codec, bounds, and the single-cycle IFP
   instructions. *)

open Core

let test_tag_fields () =
  let p = Tag.make_local_offset ~addr:0x1230L ~granule_off:7 ~subobj:3 in
  Alcotest.(check int64) "addr" 0x1230L (Tag.addr p);
  Alcotest.(check bool) "scheme" true (Tag.scheme p = Tag.Local_offset);
  Alcotest.(check int) "granule off" 7 (Tag.granule_offset p);
  Alcotest.(check (option int)) "subobj" (Some 3) (Tag.subobj_index p);
  Alcotest.(check bool) "valid poison" true (Tag.poison p = Tag.Valid)

let test_legacy_is_canonical () =
  let p = Tag.make_legacy 0xDEAD0000BEEFL in
  Alcotest.(check bool) "scheme legacy" true (Tag.scheme p = Tag.Legacy);
  Alcotest.(check int64) "tag all zero" 0L (Int64.shift_right_logical p 48)

let test_subheap_tag () =
  let p = Tag.make_subheap ~addr:0x8000L ~creg:11 ~subobj:200 in
  Alcotest.(check int) "creg" 11 (Tag.creg_index p);
  Alcotest.(check (option int)) "subobj 8 bits" (Some 200) (Tag.subobj_index p);
  Alcotest.(check bool) "scheme" true (Tag.scheme p = Tag.Subheap)

let test_global_tag () =
  let p = Tag.make_global_table ~addr:0x9000L ~index:4095 in
  Alcotest.(check int) "index" 4095 (Tag.table_index p);
  Alcotest.(check (option int)) "no subobj field" None (Tag.subobj_index p)

let test_poison_states () =
  let p = Tag.make_legacy 0x1000L in
  let p = Tag.with_poison p Tag.Oob in
  Alcotest.(check bool) "oob" true (Tag.poison p = Tag.Oob);
  let p = Tag.with_poison p Tag.Invalid in
  Alcotest.(check bool) "invalid" true (Tag.poison p = Tag.Invalid);
  let p = Tag.with_poison p Tag.Valid in
  Alcotest.(check bool) "valid again" true (Tag.poison p = Tag.Valid)

let test_metadata_addr () =
  (* object at 0x1000, size 96 -> metadata at 0x1060, granule offset 6 *)
  let p = Tag.make_local_offset ~addr:0x1000L ~granule_off:6 ~subobj:0 in
  Alcotest.(check int64) "meta addr" 0x1060L (Tag.metadata_addr_local_offset p);
  (* interior pointer at +0x28 (granule 2), offset 4 granules *)
  let q = Tag.make_local_offset ~addr:0x1028L ~granule_off:4 ~subobj:0 in
  Alcotest.(check int64) "interior meta addr" 0x1060L
    (Tag.metadata_addr_local_offset q)

let prop_tag_roundtrip =
  QCheck.Test.make ~count:500 ~name:"tag field writes are independent"
    QCheck.(triple int64 (int_bound 63) (int_bound 63))
    (fun (addr, go, so) ->
      (* addresses are 44-bit; bits 44..47 hold the temporal generation *)
      let a = Int64.logand addr Tag.addr_mask in
      let p = Tag.make_local_offset ~addr:a ~granule_off:go ~subobj:so in
      let g = go land (Tag.gen_states - 1) in
      let q = Tag.with_gen p g in
      Tag.granule_offset p = go
      && Tag.subobj_index p = Some so
      && Int64.equal (Tag.addr p) a
      && Tag.gen p = 0
      && Tag.gen q = g
      && Int64.equal (Tag.addr q) a
      && Tag.granule_offset q = go)

let test_bounds_contains () =
  let b = Bounds.make ~lo:0x100L ~hi:0x200L in
  Alcotest.(check bool) "inside" true (Bounds.contains b ~addr:0x100L ~size:8);
  Alcotest.(check bool) "fills exactly" true
    (Bounds.contains b ~addr:0x1F8L ~size:8);
  Alcotest.(check bool) "one byte out" false
    (Bounds.contains b ~addr:0x1F9L ~size:8);
  Alcotest.(check bool) "below" false (Bounds.contains b ~addr:0xFFL ~size:1);
  Alcotest.(check bool) "no bounds passes" true
    (Bounds.contains Bounds.no_bounds ~addr:0xFFFFFFL ~size:64)

let test_ifpadd_updates_granule_offset () =
  (* object base 0x1000, size 96, metadata at 0x1060 *)
  let p = Tag.make_local_offset ~addr:0x1000L ~granule_off:6 ~subobj:0 in
  let b = Bounds.make ~lo:0x1000L ~hi:0x1060L in
  let q = Insn.ifpadd p ~delta:32L ~bounds:b in
  Alcotest.(check int64) "moved" 0x1020L (Tag.addr q);
  Alcotest.(check int64) "metadata reachable" 0x1060L
    (Tag.metadata_addr_local_offset q);
  Alcotest.(check bool) "still valid" true (Tag.poison q = Tag.Valid);
  (* moving backwards also maintains it *)
  let r = Insn.ifpadd q ~delta:(-16L) ~bounds:b in
  Alcotest.(check int64) "metadata after move back" 0x1060L
    (Tag.metadata_addr_local_offset r)

let test_ifpadd_poison () =
  let p = Tag.make_local_offset ~addr:0x1000L ~granule_off:6 ~subobj:0 in
  let b = Bounds.make ~lo:0x1000L ~hi:0x1060L in
  let q = Insn.ifpadd p ~delta:0x60L ~bounds:b in
  Alcotest.(check bool) "one past end = recoverable" true (Tag.poison q = Tag.Oob);
  let r = Insn.ifpadd q ~delta:(-8L) ~bounds:b in
  Alcotest.(check bool) "back in = valid" true (Tag.poison r = Tag.Valid)

let test_ifpadd_unreachable_metadata () =
  let p = Tag.make_local_offset ~addr:0x1000L ~granule_off:6 ~subobj:0 in
  (* way past the representable granule offset *)
  let q = Insn.ifpadd p ~delta:4096L ~bounds:Bounds.no_bounds in
  Alcotest.(check bool) "invalid" true (Tag.poison q = Tag.Invalid)

let test_ifpidx_increments () =
  let p = Tag.make_local_offset ~addr:0x1000L ~granule_off:6 ~subobj:2 in
  let q = Insn.ifpidx p 3 in
  Alcotest.(check (option int)) "incremented" (Some 5) (Tag.subobj_index q);
  (* saturation at the 6-bit max *)
  let r = Insn.ifpidx p 100 in
  Alcotest.(check (option int)) "saturated" (Some 63) (Tag.subobj_index r);
  (* no-op on global-table pointers *)
  let g = Tag.make_global_table ~addr:0x1000L ~index:7 in
  Alcotest.(check int) "gt untouched" 7 (Tag.table_index (Insn.ifpidx g 3))

let test_ifpchk () =
  let p = Tag.make_legacy 0x100L in
  let b = Bounds.make ~lo:0x100L ~hi:0x140L in
  Insn.ifpchk p ~bounds:b ~size:8;
  Alcotest.check_raises "violation traps"
    (Trap.Trap (Trap.Bounds_violation { ptr = p; lo = 0x100L; hi = 0x140L; size = 0x80 }))
    (fun () -> Insn.ifpchk p ~bounds:b ~size:0x80)

let test_poison_check_on_deref () =
  Insn.load_store_poison_check (Tag.make_legacy 0x1000L);
  let bad = Tag.with_poison (Tag.make_legacy 0x1000L) Tag.Oob in
  Alcotest.check_raises "oob traps" (Trap.Trap (Trap.Poisoned_dereference bad))
    (fun () -> Insn.load_store_poison_check bad)

let test_ifpextract_demote () =
  let p = Tag.make_local_offset ~addr:0x10A0L ~granule_off:2 ~subobj:0 in
  let b = Bounds.make ~lo:0x1000L ~hi:0x1060L in
  let q = Insn.ifpextract p ~bounds:b in
  Alcotest.(check bool) "wildly out marked oob" true (Tag.poison q = Tag.Oob)

(* every trap constructor renders: to_string is total and injective over
   the constructors, and pp agrees with it *)
let test_trap_strings_total () =
  let traps =
    [
      Trap.Poisoned_dereference 0x1000L;
      Trap.Bounds_violation { ptr = 1L; lo = 0L; hi = 8L; size = 16 };
      Trap.Invalid_metadata { ptr = 2L; reason = "r" };
      Trap.Mac_mismatch { ptr = 3L };
      Trap.Memory_fault 0x4L;
    ]
  in
  List.iter
    (fun t ->
      Alcotest.(check bool) "to_string non-empty" true
        (String.length (Trap.to_string t) > 0);
      let b = Buffer.create 64 in
      let fmt = Format.formatter_of_buffer b in
      Trap.pp fmt t;
      Format.pp_print_flush fmt ();
      Alcotest.(check string) "pp agrees with to_string" (Trap.to_string t)
        (Buffer.contents b))
    traps;
  let labels = List.map Trap.to_string traps in
  Alcotest.(check int) "labels pairwise distinct" (List.length labels)
    (List.length (List.sort_uniq compare labels))

(* a trapped run's trace always closes with the T_trap event *)
let test_trapped_trace_ends_in_trap () =
  let plan =
    Ifp_faultinject.Fault.default_plan Ifp_faultinject.Fault.Tag_flip ~seed:0L
  in
  let config =
    { Vm.ifp_wrapped with Vm.trace_limit = 256; fault_plan = Some plan }
  in
  let r = Vm.run ~config (Ifp_workloads.Victim.program ()) in
  Alcotest.(check bool) "run trapped" true
    (match r.Vm.outcome with Vm.Trapped _ -> true | _ -> false);
  match List.rev r.Vm.trace with
  | Vm.T_trap _ :: _ -> ()
  | _ -> Alcotest.fail "trace does not end in T_trap"

let tests =
  [
    Alcotest.test_case "tag fields" `Quick test_tag_fields;
    Alcotest.test_case "legacy canonical" `Quick test_legacy_is_canonical;
    Alcotest.test_case "subheap tag" `Quick test_subheap_tag;
    Alcotest.test_case "global tag" `Quick test_global_tag;
    Alcotest.test_case "poison states" `Quick test_poison_states;
    Alcotest.test_case "metadata address" `Quick test_metadata_addr;
    QCheck_alcotest.to_alcotest prop_tag_roundtrip;
    Alcotest.test_case "bounds contains" `Quick test_bounds_contains;
    Alcotest.test_case "ifpadd granule offset" `Quick
      test_ifpadd_updates_granule_offset;
    Alcotest.test_case "ifpadd poison" `Quick test_ifpadd_poison;
    Alcotest.test_case "ifpadd unreachable metadata" `Quick
      test_ifpadd_unreachable_metadata;
    Alcotest.test_case "ifpidx increments" `Quick test_ifpidx_increments;
    Alcotest.test_case "ifpchk" `Quick test_ifpchk;
    Alcotest.test_case "poison check on deref" `Quick test_poison_check_on_deref;
    Alcotest.test_case "ifpextract demote" `Quick test_ifpextract_demote;
    Alcotest.test_case "trap strings total" `Quick test_trap_strings_total;
    Alcotest.test_case "trapped trace ends in T_trap" `Quick
      test_trapped_trace_ends_in_trap;
  ]
