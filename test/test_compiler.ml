(* Tests for the MiniC typechecker and the instrumentation pass. *)

open Core
open Ir

let tenv =
  Ctype.declare Ctype.empty_tenv
    {
      Ctype.sname = "pair";
      fields =
        [ { fname = "a"; fty = Ctype.I64 }; { fname = "b"; fty = Ctype.I64 } ];
    }

let prog ?(globals = []) funcs = program ~tenv ~globals funcs

let check_ok p = Typecheck.check_program p

let check_fails p =
  match Typecheck.check_program p with
  | () -> Alcotest.fail "expected Type_error"
  | exception Typecheck.Type_error _ -> ()

let test_accepts_valid () =
  check_ok
    (prog
       [
         func "main" [] Ctype.I64
           [
             Let ("p", Ctype.Ptr (Ctype.Struct "pair"), Malloc (Ctype.Struct "pair", i 1));
             Store (Ctype.I64, Gep (Ctype.Struct "pair", v "p", [ fld "a" ]), i 1);
             Return (Some (Load (Ctype.I64, Gep (Ctype.Struct "pair", v "p", [ fld "b" ]))));
           ];
       ])

let test_rejects_unknown_var () =
  check_fails (prog [ func "main" [] Ctype.I64 [ Return (Some (v "nope")) ] ])

let test_rejects_bad_field () =
  check_fails
    (prog
       [
         func "main" [] Ctype.I64
           [
             Let ("p", Ctype.Ptr (Ctype.Struct "pair"), Malloc (Ctype.Struct "pair", i 1));
             Return (Some (Load (Ctype.I64, Gep (Ctype.Struct "pair", v "p", [ fld "zz" ]))));
           ];
       ])

let test_rejects_aggregate_load () =
  check_fails
    (prog
       [
         func "main" [] Ctype.I64
           [
             Let ("p", Ctype.Ptr (Ctype.Struct "pair"), Malloc (Ctype.Struct "pair", i 1));
             Expr (Load (Ctype.Struct "pair", v "p"));
             Return (Some (i 0));
           ];
       ])

let test_rejects_arity_mismatch () =
  check_fails
    (prog
       [
         func "f" [ ("x", Ctype.I64) ] Ctype.I64 [ Return (Some (v "x")) ];
         func "main" [] Ctype.I64 [ Return (Some (Call ("f", []))) ];
       ])

let test_rejects_ptr_type_mismatch () =
  check_fails
    (prog
       [
         func "f" [ ("x", Ctype.Ptr Ctype.I64) ] Ctype.Void [ Return None ];
         func "main" [] Ctype.I64
           [
             Let ("p", Ctype.Ptr Ctype.I8, Malloc (Ctype.I8, i 4));
             Expr (Call ("f", [ v "p" ]));
             Return (Some (i 0));
           ];
       ])

let test_void_ptr_compat () =
  check_ok
    (prog
       [
         func "f" [ ("x", Ctype.Ptr Ctype.Void) ] Ctype.Void [ Return None ];
         func "main" [] Ctype.I64
           [
             Let ("p", Ctype.Ptr Ctype.I8, Malloc (Ctype.I8, i 4));
             Expr (Call ("f", [ v "p" ]));
             Return (Some (i 0));
           ];
       ])

let test_rejects_break_outside_loop () =
  check_fails (prog [ func "main" [] Ctype.I64 [ Break; Return (Some (i 0)) ] ])

let test_rejects_addr_of_register_local () =
  check_fails
    (prog
       [
         func "main" [] Ctype.I64
           [ Let ("x", Ctype.I64, i 1); Expr (Addr_local "x"); Return (Some (i 0)) ];
       ])

(* Resolve's input contract, from both sides: every program here breaks
   one Typecheck rule that the engines rely on, so the type checker
   rejects it and Resolve, handed it anyway, raises [Invalid_argument]
   naming what is wrong rather than lowering a node that aborts *)
let test_resolve_contract () =
  let main body = func "main" [] Ctype.I64 (body @ [ Return (Some (i 0)) ]) in
  let pair_ptr =
    Let ("p", Ctype.Ptr (Ctype.Struct "pair"), Malloc (Ctype.Struct "pair", i 1))
  in
  let gep steps = Expr (Gep (Ctype.Struct "pair", v "p", steps)) in
  let g = global "g" Ctype.I64 in
  List.iter
    (fun (rule, p, msg) ->
      (match Typecheck.check_program p with
      | () -> Alcotest.failf "%s: Typecheck accepted it" rule
      | exception Typecheck.Type_error _ -> ());
      match Resolve.run p with
      | _ -> Alcotest.failf "%s: Resolve lowered it" rule
      | exception Invalid_argument m ->
        Alcotest.(check string) rule ("Resolve.run: " ^ msg) m)
    [
      ( "&g of an unknown global",
        prog [ main [ Expr (Addr_global "g") ] ],
        "unknown global g" );
      ( "by-name load of an unknown global",
        prog [ main [ Expr (Load_global "g") ] ],
        "unknown global g" );
      ( "by-name store to an unknown global",
        prog [ main [ Store_global ("g", i 1) ] ],
        "unknown global g" );
      ( "unknown function",
        prog [ main [ Expr (Call ("f", [])) ] ],
        "call to unknown function f" );
      ( "field on a non-struct",
        prog
          [
            main
              [
                Let ("q", Ctype.Ptr Ctype.I64, Malloc (Ctype.I64, i 1));
                Expr (Gep (Ctype.I64, v "q", [ fld "a" ]));
              ];
          ],
        "gep: field a of a non-struct" );
      ( "missing field",
        prog [ main [ pair_ptr; gep [ fld "zz" ] ] ],
        "gep: struct pair has no field zz" );
      ( "index into a non-array",
        prog [ main [ pair_ptr; gep [ at (i 0); at (i 1) ] ] ],
        "gep: index into a non-array" );
      ( "user-function arity",
        prog
          [
            func "f" [ ("x", Ctype.I64) ] Ctype.I64 [ Return (Some (v "x")) ];
            main [ Expr (Call ("f", [])) ];
          ],
        "call to f with 0 arguments, expected 1" );
      ( "builtin arity",
        prog [ main [ Expr (Call ("__print_i64", [ i 1; i 2 ])) ] ],
        "call to __print_i64 with 2 arguments, expected 1" );
      ("duplicate function", prog [ main []; main [] ], "duplicate function main");
      ( "function named as a builtin",
        prog [ func "__abort" [] Ctype.Void [ Return None ]; main [] ],
        "duplicate function __abort" );
      ("duplicate global", prog ~globals:[ g; g ] [ main [] ], "duplicate global g");
      ( "Let of an aggregate",
        prog [ main [ Let ("s", Ctype.Struct "pair", i 0) ] ],
        "Let of a non-scalar" );
    ]

let test_layout_path () =
  let t =
    Ctype.declare tenv
      {
        Ctype.sname = "outer";
        fields =
          [ { fname = "ps"; fty = Ctype.Array (Ctype.Struct "pair", 3) } ];
      }
  in
  let path =
    Typecheck.layout_path t (Ctype.Struct "outer")
      [ fld "ps"; at (i 1); fld "b" ]
  in
  Alcotest.(check bool) "path shape" true
    (path = [ Layout.Field "ps"; Layout.Index; Layout.Field "b" ]);
  (* leading pointer index disappears from the layout path *)
  let path2 = Typecheck.layout_path t (Ctype.Struct "pair") [ at (i 4); fld "a" ] in
  Alcotest.(check bool) "leading index dropped" true
    (path2 = [ Layout.Field "a" ])

(* ---- instrumentation pass ---- *)

let test_static_safety_analysis () =
  (* constant in-bounds accesses: no registration needed *)
  let f_safe =
    func "f" [] Ctype.I64
      [
        Decl_local ("a", Ctype.Array (Ctype.I64, 4));
        Store (Ctype.I64, Gep (Ctype.Array (Ctype.I64, 4), Addr_local "a", [ at (i 2) ]), i 5);
        Return (Some (Load (Ctype.I64, Gep (Ctype.Array (Ctype.I64, 4), Addr_local "a", [ at (i 2) ]))));
      ]
  in
  Alcotest.(check bool) "static safe -> not registered" false
    (Instrument.local_needs_registration tenv f_safe "a");
  (* dynamic index: must be registered *)
  let f_dyn =
    func "g" [ ("k", Ctype.I64) ] Ctype.I64
      [
        Decl_local ("a", Ctype.Array (Ctype.I64, 4));
        Return (Some (Load (Ctype.I64, Gep (Ctype.Array (Ctype.I64, 4), Addr_local "a", [ at (v "k") ]))));
      ]
  in
  Alcotest.(check bool) "dynamic index -> registered" true
    (Instrument.local_needs_registration tenv f_dyn "a");
  (* escaping address: must be registered *)
  let f_escape =
    func "h" [] Ctype.I64
      [
        Decl_local ("a", Ctype.Array (Ctype.I64, 4));
        Expr (Call ("sink", [ Cast (Ctype.Ptr Ctype.I64, Addr_local "a") ]));
        Return (Some (i 0));
      ]
  in
  Alcotest.(check bool) "escape -> registered" true
    (Instrument.local_needs_registration tenv f_escape "a");
  (* constant out-of-bounds index is not statically safe *)
  let f_oob =
    func "k" [] Ctype.I64
      [
        Decl_local ("a", Ctype.Array (Ctype.I64, 4));
        Store (Ctype.I64, Gep (Ctype.Array (Ctype.I64, 4), Addr_local "a", [ at (i 9) ]), i 5);
        Return (Some (i 0));
      ]
  in
  Alcotest.(check bool) "const oob -> registered" true
    (Instrument.local_needs_registration tenv f_oob "a")

let count_stmts pred (f : Ir.func) =
  let n = ref 0 in
  let rec go s =
    if pred s then incr n;
    match s with
    | If (_, a, b) ->
      List.iter go a;
      List.iter go b
    | While (_, b) -> List.iter go b
    | _ -> ()
  in
  List.iter go f.body;
  !n

let test_pass_inserts_registration_and_promotes () =
  let p =
    prog
      [
        func "sink" [ ("x", Ctype.Ptr Ctype.I64) ] Ctype.Void [ Return None ];
        func "main" [] Ctype.I64
          [
            Decl_local ("a", Ctype.Array (Ctype.I64, 4));
            Expr (Call ("sink", [ Gep (Ctype.Array (Ctype.I64, 4), Addr_local "a", [ at (i 0) ]) ]));
            Let ("pp", Ctype.Ptr (Ctype.Ptr Ctype.I64), Malloc (Ctype.Ptr Ctype.I64, i 1));
            Let ("q", Ctype.Ptr Ctype.I64, Load (Ctype.Ptr Ctype.I64, v "pp"));
            Return (Some (i 0));
          ];
      ]
  in
  let p', rep = Instrument.run p in
  Alcotest.(check int) "one local registered" 1 rep.Instrument.locals_registered;
  Alcotest.(check bool) "promote inserted for pointer load" true
    (rep.promotes_inserted >= 1);
  let mainf = Option.get (Ir.find_func p' "main") in
  Alcotest.(check int) "register stmt present" 1
    (count_stmts (function Ifp_register_local _ -> true | _ -> false) mainf);
  Alcotest.(check int) "deregister before return" 1
    (count_stmts (function Ifp_deregister_local _ -> true | _ -> false) mainf)

let test_pass_leaves_legacy_functions () =
  let p =
    prog
      [
        func ~instrumented:false "lib" [ ("p", Ctype.Ptr Ctype.I64) ] Ctype.I64
          [ Return (Some (Load (Ctype.I64, v "p"))) ];
        func "main" [] Ctype.I64 [ Return (Some (i 0)) ];
      ]
  in
  let p', _ = Instrument.run p in
  let libf = Option.get (Ir.find_func p' "lib") in
  let has_promote = ref false in
  let rec scan_expr = function
    | Ifp_promote _ -> has_promote := true
    | Load (_, e) | Unop (_, e) | Cast (_, e) -> scan_expr e
    | Binop (_, a, b) -> scan_expr a; scan_expr b
    | _ -> ()
  in
  List.iter
    (function Return (Some e) -> scan_expr e | _ -> ())
    libf.body;
  Alcotest.(check bool) "no promote in legacy code" false !has_promote

let test_pass_marks_globals () =
  let g1 = global "taken" (Ctype.Array (Ctype.I64, 8)) in
  let g2 = global "byname" Ctype.I64 in
  let p =
    program ~tenv ~globals:[ g1; g2 ]
      [
        func "main" [] Ctype.I64
          [
            Expr (Gep (Ctype.Array (Ctype.I64, 8), Addr_global "taken", [ at (i 1) ]));
            Store_global ("byname", i 3);
            Return (Some (Load_global "byname"));
          ];
      ]
  in
  let instrumented, rep = Instrument.run p in
  Alcotest.(check int) "only address-taken global registered" 1
    rep.Instrument.globals_registered;
  let out name = Option.get (find_global instrumented name) in
  Alcotest.(check bool) "flag set" true (out "taken").registered;
  Alcotest.(check bool) "by-name global untouched" false (out "byname").registered;
  (* the pass must not mutate its input: the source program is shared
     with concurrent runs and content-digest computations *)
  Alcotest.(check bool) "input program untouched" false g1.registered

let tests =
  [
    Alcotest.test_case "accepts valid program" `Quick test_accepts_valid;
    Alcotest.test_case "rejects unknown var" `Quick test_rejects_unknown_var;
    Alcotest.test_case "rejects bad field" `Quick test_rejects_bad_field;
    Alcotest.test_case "rejects aggregate load" `Quick test_rejects_aggregate_load;
    Alcotest.test_case "rejects arity mismatch" `Quick test_rejects_arity_mismatch;
    Alcotest.test_case "rejects pointer mismatch" `Quick
      test_rejects_ptr_type_mismatch;
    Alcotest.test_case "void* compatible" `Quick test_void_ptr_compat;
    Alcotest.test_case "rejects break outside loop" `Quick
      test_rejects_break_outside_loop;
    Alcotest.test_case "rejects & of register local" `Quick
      test_rejects_addr_of_register_local;
    Alcotest.test_case "resolve input contract" `Quick test_resolve_contract;
    Alcotest.test_case "layout path" `Quick test_layout_path;
    Alcotest.test_case "static safety analysis" `Quick test_static_safety_analysis;
    Alcotest.test_case "pass inserts reg + promote" `Quick
      test_pass_inserts_registration_and_promotes;
    Alcotest.test_case "pass leaves legacy code" `Quick
      test_pass_leaves_legacy_functions;
    Alcotest.test_case "pass marks globals" `Quick test_pass_marks_globals;
  ]
