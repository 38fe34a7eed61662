(* Unit tests for the slot-resolution pass: name interning, call-target
   binding, gep lowering (including consecutive-field folding) and the
   structural purity of the pass. *)

open Core
open Ir

let tenv =
  let t =
    Ctype.declare Ctype.empty_tenv
      {
        Ctype.sname = "inner";
        fields =
          [
            { fname = "x"; fty = Ctype.I64 };
            { fname = "y"; fty = Ctype.I32 };
          ];
      }
  in
  Ctype.declare t
    {
      Ctype.sname = "outer";
      fields =
        [
          { fname = "a"; fty = Ctype.I64 };
          { fname = "b"; fty = Ctype.Struct "inner" };
        ];
    }

let resolve_funcs funcs =
  let p = program ~tenv ~globals:[] funcs in
  Resolve.run p

let find_func (r : Resolve.program) name =
  match Array.find_opt (fun f -> f.Resolve.fname = name) r.Resolve.funcs with
  | Some f -> f
  | None -> Alcotest.fail ("resolved program lost function " ^ name)

let test_var_interning () =
  let r =
    resolve_funcs
      [
        func "f" [ ("a", Ctype.I64); ("b", Ctype.I64) ] Ctype.I64
          [
            Let ("c", Ctype.I64, v "a" +: v "b");
            Return (Some (v "c" +: v "a"));
          ];
      ]
  in
  let f = find_func r "f" in
  Alcotest.(check (list int)) "params get the first slots" [ 0; 1 ] f.Resolve.params;
  Alcotest.(check int) "slots are dense" 3 f.Resolve.n_vars;
  Alcotest.(check (array string)) "slot -> name mapping" [| "a"; "b"; "c" |]
    f.Resolve.var_names

let test_call_targets () =
  let r =
    resolve_funcs
      [
        func "callee" [ ("x", Ctype.I64) ] Ctype.I64 [ Return (Some (v "x")) ];
        func "main" [] Ctype.I64
          [
            Expr (Call ("__print_i64", [ i 1 ]));
            Expr (Call ("__abort", []));
            Return (Some (Call ("callee", [ i 7 ])));
          ];
      ]
  in
  let m = find_func r "main" in
  (match m.Resolve.body with
  | [
   Resolve.Expr (Resolve.Call { target = Resolve.C_print_i64; n_args = 1; _ });
   Resolve.Expr (Resolve.Call { target = Resolve.C_abort; n_args = 0; _ });
   Resolve.Return
     (Some (Resolve.Call { target = Resolve.C_func idx; n_args = 1; _ }));
  ] ->
    Alcotest.(check string) "function index bound" "callee"
      r.Resolve.funcs.(idx).Resolve.fname
  | _ -> Alcotest.fail "unexpected lowering of call statements");
  Alcotest.(check string) "main located" "main"
    r.Resolve.funcs.(r.Resolve.main).Resolve.fname

let test_gep_field_folding () =
  (* consecutive struct-field steps fold into one Rs_field whose offset
     is the sum and whose size is the innermost field's *)
  let r =
    resolve_funcs
      [
        func "f" [ ("p", Ctype.Ptr (Ctype.Struct "outer")) ] Ctype.I64
          [
            Return
              (Some
                 (Load
                    ( Ctype.I32,
                      Gep (Ctype.Struct "outer", v "p", [ fld "b"; fld "y" ])
                    )));
          ];
      ]
  in
  let f = find_func r "f" in
  match f.Resolve.body with
  | [
   Resolve.Return
     (Some
        (Resolve.Load
           {
             cls = Resolve.Cls_int;
             bytes = 4;
             addr = Resolve.Gep { steps = [ Resolve.Rs_field { off; fsize } ]; _ };
           }));
  ] ->
    let off_b, _ = Ctype.field_offset tenv "outer" "b" in
    let off_y, _ = Ctype.field_offset tenv "inner" "y" in
    Alcotest.(check int) "folded offset" (off_b + off_y) off;
    Alcotest.(check int) "innermost field size" 4 fsize
  | _ -> Alcotest.fail "field chain did not fold to a single step"

let test_gep_index_stride () =
  let r =
    resolve_funcs
      [
        func "f" [ ("p", Ctype.Ptr (Ctype.Struct "inner")); ("k", Ctype.I64) ]
          Ctype.I64
          [
            Return
              (Some
                 (Load
                    ( Ctype.I64,
                      Gep
                        ( Ctype.Struct "inner",
                          v "p",
                          [ at (v "k"); fld "x" ] ) )));
          ];
      ]
  in
  let f = find_func r "f" in
  match f.Resolve.body with
  | [
   Resolve.Return
     (Some
        (Resolve.Load
           {
             addr =
               Resolve.Gep
                 {
                   steps =
                     [
                       Resolve.Rs_index { esize; _ }; Resolve.Rs_field { off = 0; _ };
                     ];
                   _;
                 };
             _;
           }));
  ] ->
    Alcotest.(check int) "element stride = sizeof inner"
      (Ctype.sizeof tenv (Ctype.Struct "inner"))
      esize
  | _ -> Alcotest.fail "unexpected gep lowering"

let test_purity () =
  (* resolving twice yields structurally identical programs: the pass
     shares no mutable state across runs *)
  let p =
    program ~tenv ~globals:[]
      [
        func "main" [] Ctype.I64
          [
            Let ("s", Ctype.I64, i 0);
            While (v "s" <: i 4, [ Assign ("s", v "s" +: i 1) ]);
            Return (Some (v "s"));
          ];
      ]
  in
  Alcotest.(check bool) "deterministic" true (Resolve.run p = Resolve.run p)

(* every site id carried by the resolved program, in walk order *)
let collect_sites (r : Resolve.program) =
  let sites = ref [] in
  let add s = sites := s :: !sites in
  let rec expr (e : Resolve.expr) =
    match e with
    | Resolve.Gep { base; steps; site; _ } ->
      add site;
      expr base;
      List.iter
        (function Resolve.Rs_index { idx; _ } -> expr idx | _ -> ())
        steps
    | Resolve.Ifp_promote { e; site } ->
      add site;
      expr e
    | Resolve.Binop (_, a, b) ->
      expr a;
      expr b
    | Resolve.Unop (_, a) -> expr a
    | Resolve.Load { addr; _ } -> expr addr
    | Resolve.Call { args; _ } -> List.iter expr args
    | Resolve.Malloc { count; _ } -> expr count
    | Resolve.Cast { e; _ } -> expr e
    | Resolve.Int _ | Resolve.Float _ | Resolve.Var _ | Resolve.Addr_local _
    | Resolve.Addr_global _ | Resolve.Load_global _ ->
      ()
  and stmt (s : Resolve.stmt) =
    match s with
    | Resolve.Let { e; _ } | Resolve.Assign { e; _ } -> expr e
    | Resolve.Store { addr; v; _ } ->
      expr addr;
      expr v
    | Resolve.Store_global { e; _ } -> expr e
    | Resolve.If (c, t, f) ->
      expr c;
      List.iter stmt t;
      List.iter stmt f
    | Resolve.While (c, b) ->
      expr c;
      List.iter stmt b
    | Resolve.Return (Some e) | Resolve.Expr e | Resolve.Free e -> expr e
    | Resolve.Ifp_register_local { site; _ } -> add site
    | Resolve.Return None | Resolve.Break | Resolve.Continue
    | Resolve.Decl_local _ | Resolve.Ifp_deregister_local _ ->
      ()
  in
  Array.iter (fun f -> List.iter stmt f.Resolve.body) r.Resolve.funcs;
  List.rev !sites

let test_site_stability () =
  (* an instrumented real workload exercises gep, promote and
     register-local sites; ids must be dense, unique, and identical
     across re-resolution. No engine reads them yet: they are pinned
     now, by the digests of resolved programs, so that the readers
     planned for them (a per-site cycle ledger, source lines per site)
     get the same ids at the same nodes on every run *)
  let wl =
    match Ifp_workloads.Registry.find "treeadd" with
    | Some wl -> wl
    | None -> Alcotest.fail "treeadd workload missing"
  in
  let prog, _ = Instrument.run (Lazy.force wl.Ifp_workloads.Workload.prog) in
  let r1 = Resolve.run prog and r2 = Resolve.run prog in
  Alcotest.(check bool) "re-resolution is structurally identical" true (r1 = r2);
  let sites = collect_sites r1 in
  Alcotest.(check bool) "program has sites" true (List.length sites > 0);
  Alcotest.(check int) "n_sites counts every site" r1.Resolve.n_sites
    (List.length sites);
  let sorted = List.sort_uniq compare sites in
  Alcotest.(check (list int)) "ids dense and unique in [0, n_sites)"
    (List.init r1.Resolve.n_sites (fun i -> i))
    sorted;
  (* same program text resolved through a fresh instrumentation gets the
     same ids: nothing in the pipeline leaks state across runs *)
  let prog', _ = Instrument.run (Lazy.force wl.Ifp_workloads.Workload.prog) in
  let r3 = Resolve.run prog' in
  Alcotest.(check (list int)) "stable across fresh instrumentation"
    sites (collect_sites r3)

let tests =
  [
    Alcotest.test_case "variable interning" `Quick test_var_interning;
    Alcotest.test_case "call targets" `Quick test_call_targets;
    Alcotest.test_case "gep field folding" `Quick test_gep_field_folding;
    Alcotest.test_case "gep index stride" `Quick test_gep_index_stride;
    Alcotest.test_case "purity" `Quick test_purity;
    Alcotest.test_case "site-id stability" `Quick test_site_stability;
  ]
