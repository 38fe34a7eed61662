(* Functional-evaluation invariants (paper §5.1) beyond the summary that
   test_paper reads off the byte-gated output (IFP 72/72, baseline 0/72):
   the no-promote control misses exactly the flows that need promote,
   intra-object cases need subobject granularity, and good programs keep
   their value. *)

open Core
module J = Ifp_juliet.Juliet
module Verdict = Ifp_faultinject.Verdict

let cases = lazy (J.all_cases ())

(* the verdict rows of [cases] run under [config], named [name] *)
let rows name config cases =
  J.rows ~config:name ~run:(fun c expect -> Vm.run ~config (J.program c expect)) cases

let test_case_count () =
  Alcotest.(check int) "6 kinds x 2 places x 6 flows" 72
    (List.length (Lazy.force cases))

let test_no_promote_misses_memory_flows () =
  let rows = rows "subheap-np" (Vm.no_promote Vm.Alloc_subheap) (Lazy.force cases) in
  let t = Verdict.tally rows in
  Alcotest.(check int) "misses exactly the 24 memory-round-trip cases" 24 t.missed;
  List.iter
    (fun (r : J.case Verdict.row) ->
      if r.expect = Verdict.Detect && r.verdict = Verdict.Silent then
        Alcotest.(check bool)
          (r.program.id ^ " missed case is a memory round trip")
          true
          (r.program.flow = J.Via_global || r.program.flow = J.Via_field))
    rows;
  Alcotest.(check int) "still no false positives" 0 t.pass_failures

let test_intra_object_needs_subobject_granularity () =
  (* run only intra-object cases under full IFP: all caught *)
  let intra =
    List.filter
      (fun (c : J.case) -> c.kind = J.Intra_object || c.kind = J.Nested_intra)
      (Lazy.force cases)
  in
  let t = Verdict.tally (rows "subheap" Vm.ifp_subheap intra) in
  Alcotest.(check int) "all intra-object detected" t.total t.detected

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

(* The MD5 of every case program, printed: a builder change that alters
   any program moves its Juliet job digests, and fails here first. *)
let test_programs_pinned () =
  let printed =
    List.concat_map
      (fun (c : J.case) ->
        [ c.id; Ir_pp.program_to_string c.good; Ir_pp.program_to_string c.bad ])
      (J.all_cases () @ J.temporal_cases ())
  in
  Alcotest.(check string) "MD5 of the printed cases" "ea369d3b7fcb32d5ecef39343b983242"
    (Digest.to_hex (Digest.string (String.concat "\x00" printed)))

let tests =
  [
    Alcotest.test_case "case inventory" `Quick test_case_count;
    Alcotest.test_case "case programs pinned" `Quick test_programs_pinned;
    Alcotest.test_case "no-promote misses via-global" `Slow
      test_no_promote_misses_memory_flows;
    Alcotest.test_case "intra-object granularity" `Slow
      test_intra_object_needs_subobject_granularity;
    Alcotest.test_case "good semantics preserved" `Slow
      test_good_programs_return_same_value_instrumented;
  ]
