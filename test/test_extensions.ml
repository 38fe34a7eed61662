(* Tests for the future-work extensions: the mixed allocator, the
   layout-walker ablation, and allocation-wrapper type inference. *)

open Core
module J = Ifp_juliet.Juliet
module Registry = Ifp_workloads.Registry

let test_mixed_allocator_semantics () =
  (* every workload must still produce the baseline checksum under the
     mixed allocator *)
  List.iter
    (fun name ->
      let wl = Option.get (Registry.find name) in
      let prog = Lazy.force wl.Ifp_workloads.Workload.prog in
      let base = Vm.run ~config:Vm.baseline prog in
      let mixed = Vm.run ~config:Vm.ifp_mixed prog in
      match (base.Vm.outcome, mixed.Vm.outcome) with
      | Vm.Finished a, Vm.Finished b ->
        Alcotest.(check int64) (name ^ " checksum") a b
      | _ -> Alcotest.fail (name ^ " did not finish"))
    [ "em3d"; "treeadd"; "health"; "bzip2" ]

let test_mixed_protection_complete () =
  let _, s = J.run_all ~config:Vm.ifp_mixed (J.all_cases ()) in
  Alcotest.(check int) "mixed detects all" s.J.total s.J.detected;
  Alcotest.(check int) "no false positives" 0 s.J.good_failures

let test_no_narrowing_object_granularity () =
  let cases = J.all_cases () in
  let outcomes, s = J.run_all ~config:(Vm.no_narrowing Vm.Alloc_subheap) cases in
  (* exactly the intra-object/nested-intra memory-round-trip cases are lost *)
  Alcotest.(check int) "64/72" 64 s.J.detected;
  List.iter
    (fun (o : J.outcome) ->
      match o.bad_verdict with
      | J.Silent ->
        Alcotest.(check bool) (o.case.id ^ " is intra-object via-global") true
          ((o.case.kind = J.Intra_object || o.case.kind = J.Nested_intra)
          && (o.case.flow = J.Via_global || o.case.flow = J.Via_field))
      | _ -> ())
    outcomes

let test_promote_narrow_flag () =
  (* the architectural knob itself: promote with ~narrow:false returns
     object bounds even for subobject pointers *)
  let mem = Memory.create () in
  Memory.map mem ~base:0x1000L ~size:65536;
  Memory.map mem ~base:0x200000L ~size:65536;
  Memory.map mem ~base:0x300000L ~size:65536;
  let meta =
    Meta.create ~memory:mem ~mac_key:5L ~layout_region:(0x200000L, 65536)
      ~global_table:(0x300000L, 64) ()
  in
  let tenv =
    Ctype.declare Ctype.empty_tenv
      {
        Ctype.sname = "two";
        fields =
          [ { fname = "a"; fty = Ctype.Array (Ctype.I8, 8) };
            { fname = "b"; fty = Ctype.Array (Ctype.I8, 8) } ];
      }
  in
  let lt = Meta.intern_layout meta tenv (Ctype.Struct "two") in
  let p = Meta.Local_offset.register meta ~base:0x1000L ~size:16 ~layout_ptr:lt in
  let q = Insn.ifpidx p 1 in
  let narrowed = Promote.run meta q in
  let wide = Promote.run ~narrow:false meta q in
  Alcotest.(check bool) "narrowed is subobject" true
    (Bounds.equal narrowed.Promote.bounds (Bounds.make ~lo:0x1000L ~hi:0x1008L));
  Alcotest.(check bool) "disabled falls back to object" true
    (Bounds.equal wide.Promote.bounds (Bounds.make ~lo:0x1000L ~hi:0x1010L));
  Alcotest.(check int) "no walk performed" 0 wide.Promote.walk_elems

let test_infer_alloc_types_pass () =
  let open Ir in
  let tenv =
    Ctype.declare Ctype.empty_tenv
      {
        Ctype.sname = "pair";
        fields =
          [ { fname = "a"; fty = Ctype.I64 }; { fname = "b"; fty = Ctype.I64 } ];
      }
  in
  let pp = Ctype.Ptr (Ctype.Struct "pair") in
  let prog =
    program ~tenv ~globals:[]
      [
        func "main" [] Ctype.I64
          [
            Let ("p", pp, Cast (pp, Malloc_bytes (i 16)));
            Store (Ctype.I64, Gep (Ctype.Struct "pair", v "p", [ fld "a" ]), i 1);
            Return (Some (i 0));
          ];
      ]
  in
  let _, off = Instrument.run prog in
  Alcotest.(check int) "no inference by default" 0 off.alloc_types_inferred;
  let p', on =
    Instrument.run ~config:{ Instrument.infer_alloc_types = true } prog
  in
  Alcotest.(check int) "one site inferred" 1 on.alloc_types_inferred;
  (* the rewritten program still runs and attaches a layout table *)
  let r = Vm.run ~config:{ Vm.ifp_subheap with infer_alloc_types = true } prog in
  (match r.Vm.outcome with
  | Vm.Finished _ -> ()
  | _ -> Alcotest.fail "inferred program failed");
  Alcotest.(check int) "heap object has layout" 1 r.Vm.counters.heap_objs_layout;
  ignore p'

let test_infer_preserves_semantics () =
  List.iter
    (fun name ->
      let wl = Option.get (Registry.find name) in
      let prog = Lazy.force wl.Ifp_workloads.Workload.prog in
      let base = Vm.run ~config:Vm.baseline prog in
      let inf =
        Vm.run ~config:{ Vm.ifp_subheap with infer_alloc_types = true } prog
      in
      match (base.Vm.outcome, inf.Vm.outcome) with
      | Vm.Finished a, Vm.Finished b ->
        Alcotest.(check int64) (name ^ " checksum") a b
      | _ -> Alcotest.fail (name ^ " did not finish"))
    [ "wolfcrypt-dh"; "health"; "coremark"; "bzip2" ]

let tests =
  [
    Alcotest.test_case "mixed allocator semantics" `Slow
      test_mixed_allocator_semantics;
    Alcotest.test_case "mixed protection complete" `Slow
      test_mixed_protection_complete;
    Alcotest.test_case "no-narrowing = object granularity" `Slow
      test_no_narrowing_object_granularity;
    Alcotest.test_case "promote narrow flag" `Quick test_promote_narrow_flag;
    Alcotest.test_case "wrapper inference pass" `Quick test_infer_alloc_types_pass;
    Alcotest.test_case "inference preserves semantics" `Slow
      test_infer_preserves_semantics;
  ]
