(* Semantic tests for the VM: arithmetic, control flow, recursion,
   memory, calling convention and the IFP execution modes. *)

open Core
open Ir

let tenv =
  Ctype.declare Ctype.empty_tenv
    {
      Ctype.sname = "cons";
      fields =
        [
          { fname = "hd"; fty = Ctype.I64 };
          { fname = "tl"; fty = Ctype.Ptr (Ctype.Struct "cons") };
        ];
    }

let run_main ?(config = Vm.baseline) ?(globals = []) ?(funcs = []) body =
  let p = program ~tenv ~globals (funcs @ [ func "main" [] Ctype.I64 body ]) in
  Vm.run ~config p

let expect_ret ?config ?globals ?funcs expected body =
  let r = run_main ?config ?globals ?funcs body in
  match r.Vm.outcome with
  | Vm.Finished x -> Alcotest.(check int64) "return value" expected x
  | Vm.Trapped t -> Alcotest.fail ("trapped: " ^ Trap.to_string t)
  | Vm.Aborted m -> Alcotest.fail ("aborted: " ^ Vm.abort_reason_string m)

let test_arith () =
  expect_ret 42L [ Return (Some ((i 6 *: i 8) -: (i 12 /: i 2))) ];
  expect_ret 1L [ Return (Some (i 7 %: i 3)) ];
  expect_ret (-5L) [ Return (Some (Unop (Neg, i 5))) ];
  expect_ret 12L [ Return (Some (Binop (Shl, i 3, i 2))) ];
  expect_ret 1L [ Return (Some (i 3 <: i 4)) ];
  expect_ret 0L [ Return (Some (i 4 <: i 3)) ]

let test_float () =
  expect_ret 7L
    [ Return (Some (Cast (Ctype.I64, Binop (FAdd, Float 3.5, Float 3.5)))) ];
  expect_ret 1L [ Return (Some (Binop (FLt, Float 1.0, Float 2.0))) ]

let test_short_circuit () =
  (* the right operand must not be evaluated: it would divide by zero *)
  expect_ret 0L [ Return (Some (i 0 &&: (i 1 /: i 0))) ];
  expect_ret 1L [ Return (Some (i 1 ||: (i 1 /: i 0))) ]

let test_control_flow () =
  expect_ret 10L
    [
      Let ("s", Ctype.I64, i 0);
      Let ("k", Ctype.I64, i 0);
      While
        ( v "k" <: i 5,
          [ Assign ("s", v "s" +: v "k"); Assign ("k", v "k" +: i 1) ] );
      Return (Some (v "s"));
    ];
  expect_ret 3L
    [
      Let ("k", Ctype.I64, i 0);
      While
        ( i 1,
          [
            Assign ("k", v "k" +: i 1);
            If (v "k" >=: i 3, [ Break ], []);
          ] );
      Return (Some (v "k"));
    ]

let test_recursion () =
  let fib =
    func "fib" [ ("n", Ctype.I64) ] Ctype.I64
      [
        If (v "n" <=: i 1, [ Return (Some (v "n")) ], []);
        Return (Some (Call ("fib", [ v "n" -: i 1 ]) +: Call ("fib", [ v "n" -: i 2 ])));
      ]
  in
  expect_ret ~funcs:[ fib ] 55L [ Return (Some (Call ("fib", [ i 10 ]))) ]

let test_heap_linked_list () =
  let body =
    [
      Let ("head", Ctype.Ptr (Ctype.Struct "cons"), null (Ctype.Struct "cons"));
      Let ("k", Ctype.I64, i 0);
      While
        ( v "k" <: i 10,
          [
            Let ("c", Ctype.Ptr (Ctype.Struct "cons"), Malloc (Ctype.Struct "cons", i 1));
            Store (Ctype.I64, Gep (Ctype.Struct "cons", v "c", [ fld "hd" ]), v "k");
            Store (Ctype.Ptr (Ctype.Struct "cons"),
                   Gep (Ctype.Struct "cons", v "c", [ fld "tl" ]), v "head");
            Assign ("head", v "c");
            Assign ("k", v "k" +: i 1);
          ] );
      Let ("s", Ctype.I64, i 0);
      While
        ( Binop (Ne, v "head", null (Ctype.Struct "cons")),
          [
            Assign ("s", v "s" +: Load (Ctype.I64, Gep (Ctype.Struct "cons", v "head", [ fld "hd" ])));
            Assign ("head",
                    Load (Ctype.Ptr (Ctype.Struct "cons"),
                          Gep (Ctype.Struct "cons", v "head", [ fld "tl" ])));
          ] );
      Return (Some (v "s"));
    ]
  in
  expect_ret 45L body;
  expect_ret ~config:Vm.ifp_subheap 45L body;
  expect_ret ~config:Vm.ifp_wrapped 45L body

let test_narrow_int_store () =
  (* i8 store truncates; i8 load sign-extends *)
  expect_ret (-1L)
    [
      Let ("p", Ctype.Ptr Ctype.I8, Malloc (Ctype.I8, i 4));
      Store (Ctype.I8, v "p", i 0xFF);
      Return (Some (Cast (Ctype.I64, Load (Ctype.I8, v "p"))));
    ]

let test_globals () =
  let g = global "acc" Ctype.I64 in
  expect_ret ~globals:[ g ] 7L
    [
      Store_global ("acc", i 3);
      Store_global ("acc", Load_global "acc" +: i 4);
      Return (Some (Load_global "acc"));
    ]

let test_division_by_zero_aborts () =
  let r = run_main [ Return (Some (i 1 /: i 0)) ] in
  match r.Vm.outcome with
  | Vm.Aborted _ -> ()
  | _ -> Alcotest.fail "expected abort"

let test_stack_overflow_aborts () =
  let looper =
    func "deep" [ ("n", Ctype.I64) ] Ctype.I64
      [
        Decl_local ("pad", Ctype.Array (Ctype.I64, 512));
        Store (Ctype.I64,
               Gep (Ctype.Array (Ctype.I64, 512), Addr_local "pad", [ at (i 0) ]),
               v "n");
        Return (Some (Call ("deep", [ v "n" +: i 1 ])));
      ]
  in
  let r = run_main ~funcs:[ looper ] [ Return (Some (Call ("deep", [ i 0 ]))) ] in
  match r.Vm.outcome with
  | Vm.Aborted msg ->
    Alcotest.(check string)
      "stack overflow" "stack overflow"
      (Vm.abort_reason_string msg)
  | _ -> Alcotest.fail "expected stack overflow"

let test_legacy_clears_bounds () =
  (* a legacy callee returns a pointer it received; the caller must not
     inherit stale bounds through it (implicit bounds clearing §4.1.2),
     so a subsequent out-of-bounds dereference goes unchecked *)
  let lib =
    func ~instrumented:false "lib_pass" [ ("p", Ctype.Ptr Ctype.I64) ]
      (Ctype.Ptr Ctype.I64)
      [ Return (Some (v "p")) ]
  in
  let body =
    [
      Let ("p", Ctype.Ptr Ctype.I64, Malloc (Ctype.I64, i 2));
      Let ("q", Ctype.Ptr Ctype.I64, Call ("lib_pass", [ v "p" ]));
      (* out of bounds, but q has cleared bounds -> silent *)
      Store (Ctype.I64, Gep (Ctype.I64, v "q", [ at (i 5) ]), i 1);
      Return (Some (i 0));
    ]
  in
  let r = run_main ~config:Vm.ifp_subheap ~funcs:[ lib ] body in
  (match r.Vm.outcome with
  | Vm.Finished _ -> ()
  | _ -> Alcotest.fail "legacy-returned pointer should be unchecked");
  (* while the same store through the original pointer traps *)
  let body2 =
    [
      Let ("p", Ctype.Ptr Ctype.I64, Malloc (Ctype.I64, i 2));
      Store (Ctype.I64, Gep (Ctype.I64, v "p", [ at (i 5) ]), i 1);
      Return (Some (i 0));
    ]
  in
  let r2 = run_main ~config:Vm.ifp_subheap body2 in
  match r2.Vm.outcome with
  | Vm.Trapped _ -> ()
  | _ -> Alcotest.fail "instrumented pointer should be checked"

let test_bounds_through_call () =
  (* bounds travel with pointer arguments: the callee's bad access traps
     without any promote *)
  let writer =
    func "writer" [ ("p", Ctype.Ptr Ctype.I64); ("k", Ctype.I64) ] Ctype.Void
      [ Store (Ctype.I64, Gep (Ctype.I64, v "p", [ at (v "k") ]), i 1); Return None ]
  in
  let mk k =
    [
      Let ("p", Ctype.Ptr Ctype.I64, Malloc (Ctype.I64, i 4));
      Expr (Call ("writer", [ v "p"; i k ]));
      Return (Some (i 0));
    ]
  in
  let ok = run_main ~config:Vm.ifp_subheap ~funcs:[ writer ] (mk 3) in
  (match ok.Vm.outcome with
  | Vm.Finished _ -> ()
  | _ -> Alcotest.fail "in-bounds call access");
  let bad = run_main ~config:Vm.ifp_subheap ~funcs:[ writer ] (mk 4) in
  (match bad.Vm.outcome with
  | Vm.Trapped _ -> ()
  | _ -> Alcotest.fail "oob call access should trap");
  (* and no promote was needed for the argument *)
  Alcotest.(check int) "no promotes" 0
    (Counters.ifp_count ok.Vm.counters Insn.Promote)

let test_free_reuse () =
  expect_ret ~config:Vm.ifp_subheap 3L
    [
      Let ("p", Ctype.Ptr Ctype.I64, Malloc (Ctype.I64, i 4));
      Free (v "p");
      Let ("q", Ctype.Ptr Ctype.I64, Malloc (Ctype.I64, i 4));
      Store (Ctype.I64, v "q", i 3);
      Return (Some (Load (Ctype.I64, v "q")));
    ]

let test_checksums_equal_across_variants () =
  (* one program, five configurations, one answer *)
  let body =
    [
      Let ("p", Ctype.Ptr (Ctype.Struct "cons"), Malloc (Ctype.Struct "cons", i 3));
      Let ("k", Ctype.I64, i 0);
      While
        ( v "k" <: i 3,
          [
            Store (Ctype.I64, Gep (Ctype.Struct "cons", v "p", [ at (v "k"); fld "hd" ]),
                   v "k" *: i 10);
            Assign ("k", v "k" +: i 1);
          ] );
      Return
        (Some
           (Load (Ctype.I64, Gep (Ctype.Struct "cons", v "p", [ at (i 2); fld "hd" ]))));
    ]
  in
  List.iter
    (fun cfg -> expect_ret ~config:cfg 20L body)
    [ Vm.baseline; Vm.ifp_subheap; Vm.ifp_wrapped;
      Vm.no_promote Vm.Alloc_subheap; Vm.no_promote Vm.Alloc_wrapped ]

let test_cycle_budget () =
  let r =
    run_main
      ~config:{ Vm.baseline with max_cycles = 1000 }
      [ Let ("k", Ctype.I64, i 0);
        While (i 1, [ Assign ("k", v "k" +: i 1) ]);
        Return (Some (i 0)) ]
  in
  match r.Vm.outcome with
  | Vm.Aborted _ -> ()
  | _ -> Alcotest.fail "expected budget abort"

let test_output () =
  let r =
    run_main
      [ Expr (Call ("__print_i64", [ i 41 +: i 1 ])); Return (Some (i 0)) ]
  in
  Alcotest.(check (list string)) "printed" [ "42" ] r.Vm.output

let tests =
  [
    Alcotest.test_case "arithmetic" `Quick test_arith;
    Alcotest.test_case "floats" `Quick test_float;
    Alcotest.test_case "short circuit" `Quick test_short_circuit;
    Alcotest.test_case "control flow" `Quick test_control_flow;
    Alcotest.test_case "recursion" `Quick test_recursion;
    Alcotest.test_case "heap linked list (3 modes)" `Quick test_heap_linked_list;
    Alcotest.test_case "narrow int store" `Quick test_narrow_int_store;
    Alcotest.test_case "globals" `Quick test_globals;
    Alcotest.test_case "division by zero" `Quick test_division_by_zero_aborts;
    Alcotest.test_case "stack overflow" `Quick test_stack_overflow_aborts;
    Alcotest.test_case "legacy clears bounds" `Quick test_legacy_clears_bounds;
    Alcotest.test_case "bounds through calls" `Quick test_bounds_through_call;
    Alcotest.test_case "free + reuse" `Quick test_free_reuse;
    Alcotest.test_case "checksums across variants" `Quick
      test_checksums_equal_across_variants;
    Alcotest.test_case "cycle budget" `Quick test_cycle_budget;
    Alcotest.test_case "host output" `Quick test_output;
  ]
