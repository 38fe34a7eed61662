(* Three-engine differential testing: the slot-resolved interpreter
   (Vm), the name-keyed reference (Vm_ref) and the closure-compiled
   engine (Vm_closure) must be observationally identical — same outcome,
   every counter, IFP trace, cache statistics, footprint and output —
   on workloads, on failure paths (aborts, budget exhaustion, bounds
   traps), and on a seeded stream of randomly generated programs that
   mixes arithmetic, gep chains and promote-heavy pointer traffic.

   The closure engine's fused superinstructions and inline caches are
   specializations, not semantics: any divergence here is a bug in the
   compiler, and this suite is what keeps it honest. *)

open Core
open Ir

let engines : (string * (Vm.config -> Ir.program -> Vm.result)) list =
  [
    ("vm", fun config prog -> Vm.run ~config prog);
    ("vm-ref", fun config prog -> Vm_ref.run ~config prog);
    ("closure", fun config prog -> Vm_closure.run ~config prog);
  ]

(* ---- full observable signature of a run ---------------------------- *)

let outcome_str = function
  | Vm.Finished v -> "finished:" ^ Int64.to_string v
  | Vm.Trapped t -> "trapped:" ^ Trap.to_string t
  | Vm.Aborted r -> "aborted:" ^ Vm.abort_reason_string r

let trace_str = function
  | Vm.T_promote { ptr; outcome; bounds } ->
    Printf.sprintf "promote:%Lx:%s:%s" ptr outcome bounds
  | Vm.T_register { what; ptr; size } ->
    Printf.sprintf "register:%s:%Lx:%d" what ptr size
  | Vm.T_deregister { what; ptr } -> Printf.sprintf "deregister:%s:%Lx" what ptr
  | Vm.T_trap m -> "trap:" ^ m

(* every observable field folded into one string, so a mismatch anywhere
   fails with a diffable report *)
let result_sig (r : Vm.result) =
  let c = r.Vm.counters in
  let b = Buffer.create 256 in
  let f fmt = Printf.ksprintf (fun s -> Buffer.add_string b s) fmt in
  f "outcome=%s\n" (outcome_str r.Vm.outcome);
  f "base_instrs=%d cycles=%d loads=%d stores=%d checks=%d\n"
    c.Counters.base_instrs c.Counters.cycles c.Counters.loads c.Counters.stores
    c.Counters.implicit_checks;
  f "ifp=[%s]\n"
    (String.concat ","
       (List.map string_of_int (Array.to_list c.Counters.ifp)));
  f "promotes=%d/%d/%d/%d/%d subobj=%d narrows=%d/%d\n"
    c.Counters.promotes_valid c.Counters.promotes_null
    c.Counters.promotes_legacy c.Counters.promotes_poisoned
    c.Counters.promotes_invalid_meta c.Counters.promotes_subobj
    c.Counters.narrows_ok c.Counters.narrows_failed;
  f "objs=%d/%d %d/%d %d/%d\n" c.Counters.global_objs
    c.Counters.global_objs_layout c.Counters.local_objs
    c.Counters.local_objs_layout c.Counters.heap_objs
    c.Counters.heap_objs_layout;
  f "cache=%d/%d footprint=%d\n" r.Vm.cache_accesses r.Vm.cache_misses
    r.Vm.mem_footprint;
  f "output=%s\n" (String.concat "|" r.Vm.output);
  f "trace=%s\n" (String.concat ";" (List.map trace_str r.Vm.trace));
  Buffer.contents b

let check_all_engines_agree name config prog =
  match engines with
  | [] -> assert false
  | (ref_name, ref_run) :: rest ->
    let expected = result_sig (ref_run config prog) in
    List.iter
      (fun (ename, erun) ->
        Alcotest.check Alcotest.string
          (Printf.sprintf "%s: %s vs %s" name ename ref_name)
          expected
          (result_sig (erun config prog)))
      rest

let configs =
  [
    ("baseline", Vm.baseline);
    ("ifp-subheap", { Vm.ifp_subheap with trace_limit = 64 });
    ("ifp-wrapped", { Vm.ifp_wrapped with trace_limit = 64 });
    ("ifp-mixed", Vm.ifp_mixed);
    ("subheap-np", Vm.no_promote Vm.Alloc_subheap);
    ("no-narrowing", Vm.no_narrowing Vm.Alloc_subheap);
  ]

(* ---- workloads ------------------------------------------------------ *)

let test_workloads () =
  List.iter
    (fun wname ->
      match Ifp_workloads.Registry.find wname with
      | None -> Alcotest.fail ("missing workload " ^ wname)
      | Some w ->
        let prog = Lazy.force w.Ifp_workloads.Workload.prog in
        List.iter
          (fun (cname, config) ->
            check_all_engines_agree (wname ^ "/" ^ cname) config prog)
          configs)
    [ "treeadd"; "mst"; "ft"; "power" ]

(* ---- failure paths -------------------------------------------------- *)

let tenv =
  Ctype.declare Ctype.empty_tenv
    {
      Ctype.sname = "pair";
      fields =
        [
          { fname = "a"; fty = Ctype.Array (Ctype.I64, 4) };
          { fname = "b"; fty = Ctype.I64 };
        ];
    }

let pair = Ctype.Struct "pair"

let test_failure_paths () =
  let div0 =
    program ~tenv ~globals:[]
      [ func "main" [] Ctype.I64 [ Return (Some (i 1 /: i 0)) ] ]
  in
  let spin =
    program ~tenv ~globals:[]
      [
        func "main" [] Ctype.I64
          [ While (i 1, [ Let ("x", Ctype.I64, i 0) ]); Return (Some (i 0)) ];
      ]
  in
  (* heap overflow: in-bounds writes then one past the end — traps under
     IFP (through the fused gep→check→store path), runs to completion
     under baseline; engines must agree per config either way *)
  let oob =
    program ~tenv ~globals:[]
      [
        func "main" [] Ctype.I64
          [
            Let ("p", Ctype.Ptr Ctype.I64, Malloc (Ctype.I64, i 4));
            Let ("j", Ctype.I64, i 0);
            While
              ( v "j" <: i 5,
                [
                  Store (Ctype.I64, idx (v "p") (v "j") [] Ctype.I64, v "j");
                  Assign ("j", v "j" +: i 1);
                ] );
            Return (Some (i 0));
          ];
      ]
  in
  (* subobject escape: narrowed bounds from a field gep, then an access
     beyond the field — the subobject-granularity trap *)
  let subobj =
    program ~tenv ~globals:[]
      [
        func "main" [] Ctype.I64
          [
            Let ("p", Ctype.Ptr pair, Malloc (pair, i 1));
            Let ("q", Ctype.Ptr Ctype.I64, Gep (pair, v "p", [ fld "a"; at (i 0) ]));
            Let ("j", Ctype.I64, i 0);
            While
              ( v "j" <: i 6,
                [
                  Store (Ctype.I64, idx (v "q") (v "j") [] Ctype.I64, i 7);
                  Assign ("j", v "j" +: i 1);
                ] );
            Return (Some (i 0));
          ];
      ]
  in
  (* unbounded recursion with no locals: no simulated sp moves, so only
     the guest call-depth bound stops it — on every engine, on the main
     domain's stack and on a spawned domain's (as under [-j N]) *)
  let recur =
    program ~tenv ~globals:[]
      [ func "main" [] Ctype.I64 [ Return (Some (Call ("main", []))) ] ]
  in
  let check_stack_overflow name config =
    List.iter
      (fun (ename, erun) ->
        List.iter
          (fun (where, r) ->
            Alcotest.(check string)
              (Printf.sprintf "%s: %s on %s" name ename where)
              "aborted:stack overflow" (outcome_str r.Vm.outcome))
          [
            ("main domain", erun config recur);
            ("spawned domain", Domain.join (Domain.spawn (fun () -> erun config recur)));
          ])
      engines
  in
  List.iter
    (fun (cname, config) ->
      check_all_engines_agree ("div0/" ^ cname) config div0;
      check_all_engines_agree ("recur/" ^ cname) config recur;
      check_stack_overflow ("recur/" ^ cname) config;
      check_all_engines_agree ("spin/" ^ cname)
        { config with Vm.max_cycles = 10_000 }
        spin;
      check_all_engines_agree ("oob/" ^ cname) config oob;
      check_all_engines_agree ("subobj/" ^ cname) config subobj)
    configs

(* ---- local registration (inline-cache path) ------------------------- *)

let test_local_registration () =
  (* address-taken locals in a function called repeatedly: the closure
     engine's per-site inline cache must serve every repeat without
     changing a single counter *)
  let prog =
    program ~tenv ~globals:[]
      [
        func "work" [ ("k", Ctype.I64) ] Ctype.I64
          [
            Decl_local ("t", pair);
            Store (Ctype.I64, Gep (pair, Addr_local "t", [ fld "b" ]), v "k");
            Store
              ( Ctype.I64,
                Gep (pair, Addr_local "t", [ fld "a"; at (v "k" %: i 4) ]),
                v "k" *: i 3 );
            Return
              (Some
                 (Load (Ctype.I64, Gep (pair, Addr_local "t", [ fld "b" ]))
                 +: Load
                      ( Ctype.I64,
                        Gep (pair, Addr_local "t", [ fld "a"; at (v "k" %: i 4) ])
                      )));
          ];
        func "main" [] Ctype.I64
          [
            Let ("acc", Ctype.I64, i 0);
            Let ("j", Ctype.I64, i 0);
            While
              ( v "j" <: i 50,
                [
                  Assign ("acc", v "acc" +: Call ("work", [ v "j" ]));
                  Assign ("j", v "j" +: i 1);
                ] );
            Return (Some (v "acc"));
          ];
      ]
  in
  List.iter
    (fun (cname, config) ->
      check_all_engines_agree ("local-reg/" ^ cname) config prog)
    configs

(* ---- seeded random programs ----------------------------------------- *)

(* A compact generator in the spirit of test_differential's, with the
   mixes the closure engine specializes on: integer arithmetic chains,
   single-step field/index geps (the fused shapes), multi-step gep
   chains (the generic path), promote-heavy loads, and calls. Indexes
   are masked to power-of-two array sizes so generated programs are
   memory-safe by construction; all engines must then agree under every
   config, counters included. *)

let box_tenv =
  Ctype.declare Ctype.empty_tenv
    {
      Ctype.sname = "box";
      fields =
        [
          { fname = "value"; fty = Ctype.I64 };
          { fname = "arr"; fty = Ctype.Array (Ctype.I64, 4) };
          { fname = "next"; fty = Ctype.Ptr (Ctype.Struct "box") };
        ];
    }

let box = Ctype.Struct "box"
let mask n e = Binop (BAnd, e, i (n - 1))

let rec gen_expr depth st =
  let open QCheck.Gen in
  let leaf =
    oneof
      [
        map (fun n -> i n) (int_range (-20) 20);
        oneofl [ v "s0"; v "s1"; v "s2"; v "k" ];
        return (Load (Ctype.I64, Gep (box, v "b", [ fld "value" ])));
        map
          (fun k -> Load (Ctype.I64, Gep (Ctype.I64, v "a", [ at (i (k land 7)) ])))
          (int_bound 7);
      ]
  in
  if depth = 0 then leaf st
  else
    let sub = gen_expr (depth - 1) in
    oneof
      [
        leaf;
        map2 (fun a b -> a +: b) sub sub;
        map2 (fun a b -> a -: b) sub sub;
        map2 (fun a b -> Binop (BXor, a, b)) sub sub;
        map2 (fun a b -> Binop (Shr, a, Binop (BAnd, b, i 7))) sub sub;
        map (fun a -> a *: i 3) sub;
        map
          (fun a -> Load (Ctype.I64, Gep (Ctype.I64, v "a", [ at (mask 8 a) ])))
          sub;
        map
          (fun a ->
            Load (Ctype.I64, Gep (box, v "b", [ fld "arr"; at (mask 4 a) ])))
          sub;
        map2 (fun a b -> Call ("mix", [ a; b ])) sub sub;
      ]
      st

let gen_cond st =
  let open QCheck.Gen in
  (let* a = gen_expr 1 in
   let* b = gen_expr 1 in
   oneofl [ a <: b; a ==: b; a <>: b ])
    st

let rec gen_stmt depth st =
  let open QCheck.Gen in
  let assign =
    let* var = oneofl [ "s0"; "s1"; "s2" ] in
    let* e = gen_expr 2 in
    return (Assign (var, e))
  in
  let store_a =
    let* idx = gen_expr 1 in
    let* e = gen_expr 2 in
    return (Store (Ctype.I64, Gep (Ctype.I64, v "a", [ at (mask 8 idx) ]), e))
  in
  let store_box =
    let* e = gen_expr 2 in
    oneofl
      [
        Store (Ctype.I64, Gep (box, v "b", [ fld "value" ]), e);
        Store (Ctype.I64, Gep (box, v "b", [ fld "arr"; at (mask 4 e) ]), i 7);
      ]
  in
  let simple = oneof [ assign; store_a; store_box ] in
  if depth = 0 then simple st
  else
    let block n = list_size (int_range 1 n) (gen_stmt (depth - 1)) in
    oneof
      [
        simple;
        (let* body = block 3 in
         let* bound = int_range 1 6 in
         return
           (While (v "k" <: i bound, body @ [ Assign ("k", v "k" +: i 1) ])));
        (let* c = gen_cond in
         let* t = block 3 in
         let* e = block 2 in
         return (If (c, t, e)));
      ]
      st

let gen_program st =
  let open QCheck.Gen in
  let stmts =
    (list_size (int_range 3 8) (gen_stmt 2)) st |> List.concat_map (fun s ->
        [ Assign ("k", i 0); s ])
  in
  let mix =
    func "mix" [ ("x", Ctype.I64); ("y", Ctype.I64) ] Ctype.I64
      [ Return (Some (Binop (BXor, v "x" +: v "y", Binop (Shr, v "x", i 3)))) ]
  in
  let prelude =
    [
      Let ("s0", Ctype.I64, i 1);
      Let ("s1", Ctype.I64, i 2);
      Let ("s2", Ctype.I64, i 3);
      Let ("k", Ctype.I64, i 0);
      Let ("a", Ctype.Ptr Ctype.I64, Malloc (Ctype.I64, i 8));
      Let ("b", Ctype.Ptr box, Malloc (box, i 1));
      Let ("z", Ctype.I64, i 0);
      While
        ( v "z" <: i 8,
          [
            Store (Ctype.I64, Gep (Ctype.I64, v "a", [ at (v "z") ]), v "z");
            Assign ("z", v "z" +: i 1);
          ] );
      Store (Ctype.I64, Gep (box, v "b", [ fld "value" ]), i 5);
      Store (Ctype.Ptr box, Gep (box, v "b", [ fld "next" ]), null box);
    ]
  in
  let checksum =
    [
      Let ("acc", Ctype.I64, v "s0" +: v "s1" +: v "s2");
      Let ("j", Ctype.I64, i 0);
      While
        ( v "j" <: i 8,
          [
            Assign
              ( "acc",
                Binop
                  ( BXor,
                    v "acc",
                    Load (Ctype.I64, Gep (Ctype.I64, v "a", [ at (v "j") ]))
                    +: v "j" ) );
            Assign ("j", v "j" +: i 1);
          ] );
      Return
        (Some (v "acc" +: Load (Ctype.I64, Gep (box, v "b", [ fld "value" ]))));
    ]
  in
  program ~tenv:box_tenv ~globals:[]
    [ mix; func "main" [] Ctype.I64 (prelude @ stmts @ checksum) ]

let random_configs =
  [
    ("baseline", Vm.baseline);
    ("ifp-subheap", { Vm.ifp_subheap with trace_limit = 32 });
    ("ifp-wrapped", Vm.ifp_wrapped);
  ]

let test_random_programs () =
  (* fixed seed: the same 40 programs every run, so a failure here is
     reproducible without qcheck seed plumbing *)
  let rand = Random.State.make [| 0x1F9; 2026 |] in
  for n = 1 to 40 do
    let prog = QCheck.Gen.generate1 ~rand gen_program in
    (match Typecheck.check_program prog with
    | exception Typecheck.Type_error e ->
      Alcotest.fail (Printf.sprintf "program %d ill-typed: %s" n e)
    | () -> ());
    List.iter
      (fun (cname, config) ->
        check_all_engines_agree
          (Printf.sprintf "random-%d/%s" n cname)
          config prog)
      random_configs
  done

(* ---- dispatch and profiling ----------------------------------------- *)

let test_engines_dispatch () =
  (* Engines.run must route on config.engine and Engines.of_string must
     round-trip the CLI spellings *)
  List.iter
    (fun eng ->
      let name = Engines.to_string eng in
      Alcotest.(check bool)
        ("of_string " ^ name) true
        (Engines.of_string name = Some eng))
    Engines.all;
  Alcotest.(check bool) "unknown engine" true (Engines.of_string "jit" = None);
  let w = Option.get (Ifp_workloads.Registry.find "treeadd") in
  let prog = Lazy.force w.Ifp_workloads.Workload.prog in
  let base = Vm.run ~config:Vm.ifp_subheap prog in
  List.iter
    (fun eng ->
      let r =
        Engines.run ~config:{ Vm.ifp_subheap with engine = eng } prog
      in
      Alcotest.check Alcotest.string
        ("dispatch " ^ Engines.to_string eng)
        (result_sig base) (result_sig r))
    Engines.all

let tests =
  [
    Alcotest.test_case "three engines agree on workloads" `Quick test_workloads;
    Alcotest.test_case "three engines agree on failure paths" `Quick
      test_failure_paths;
    Alcotest.test_case "local registration via inline cache" `Quick
      test_local_registration;
    Alcotest.test_case "three engines agree on random programs" `Quick
      test_random_programs;
    Alcotest.test_case "engine dispatch and names" `Quick test_engines_dispatch;
  ]
