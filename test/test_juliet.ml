(* Functional-evaluation invariants (paper §5.1) beyond the summary that
   test_paper reads off the byte-gated output (IFP 72/72, baseline 0/72):
   the no-promote control misses exactly the flows that need promote,
   intra-object cases need subobject granularity, and good programs keep
   their value. *)

open Core
module J = Ifp_juliet.Juliet

let cases = lazy (J.all_cases ())

let test_case_count () =
  Alcotest.(check int) "6 kinds x 2 places x 6 flows" 72
    (List.length (Lazy.force cases))

let test_no_promote_misses_memory_flows () =
  let config = Vm.no_promote Vm.Alloc_subheap in
  let outcomes, s = J.run_all ~config (Lazy.force cases) in
  Alcotest.(check int) "misses exactly the 24 memory-round-trip cases" 24
    s.J.missed;
  List.iter
    (fun (o : J.outcome) ->
      match o.bad_verdict with
      | J.Silent ->
        Alcotest.(check bool)
          (o.case.id ^ " missed case is a memory round trip")
          true
          (o.case.flow = J.Via_global || o.case.flow = J.Via_field)
      | _ -> ())
    outcomes;
  Alcotest.(check int) "still no false positives" 0 s.J.good_failures

let test_intra_object_needs_subobject_granularity () =
  (* run only intra-object cases under full IFP: all caught *)
  let intra =
    List.filter
      (fun (c : J.case) -> c.kind = J.Intra_object || c.kind = J.Nested_intra)
      (Lazy.force cases)
  in
  let _, s = J.run_all ~config:Vm.ifp_subheap intra in
  Alcotest.(check int) "all intra-object detected" s.J.total s.J.detected

let test_good_programs_return_same_value_instrumented () =
  (* instrumentation must not change the semantics of correct programs *)
  List.iter
    (fun (c : J.case) ->
      let r1 = Vm.run ~config:Vm.baseline c.good in
      let r2 = Vm.run ~config:Vm.ifp_subheap c.good in
      match (r1.Vm.outcome, r2.Vm.outcome) with
      | Vm.Finished a, Vm.Finished b ->
        Alcotest.(check int64) (c.id ^ " good checksum") a b
      | _ -> Alcotest.fail (c.id ^ " good case did not finish"))
    (Lazy.force cases)

let tests =
  [
    Alcotest.test_case "case inventory" `Quick test_case_count;
    Alcotest.test_case "no-promote misses via-global" `Slow
      test_no_promote_misses_memory_flows;
    Alcotest.test_case "intra-object granularity" `Slow
      test_intra_object_needs_subobject_granularity;
    Alcotest.test_case "good semantics preserved" `Slow
      test_good_programs_return_same_value_instrumented;
  ]
