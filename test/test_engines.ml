(* Engine differential testing: every engine of Engines.all must be
   observationally identical to the reference (Oracle.agree: same
   outcome, every counter, IFP trace, cache statistics, footprint and
   output) on workloads, on failure paths (aborts, budget exhaustion,
   bounds traps), on local registration and on runs with a fault
   injector armed. Generated programs go through the same oracle in
   test_fuzz.

   The closure engine's fused superinstructions are specializations, not
   semantics: any divergence here is a bug in the compiler, and this
   suite is what keeps it honest. *)

open Core
open Ir
module Oracle = Ifp_fuzz.Oracle
module Fault = Ifp_faultinject.Fault
module Victim = Ifp_workloads.Victim

(* every engine of Engines.all against the reference, full signatures *)
let check_all_engines_agree name config prog =
  Alcotest.(check (list string)) name []
    (List.map Oracle.to_line (fst (Oracle.agree name config prog)))

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

(* the 24 (workload, config) pairs are independent: they run on two
   worker domains, and their verdicts are checked here, in order *)
let test_workloads () =
  let pairs =
    List.concat_map
      (fun wname ->
        match Ifp_workloads.Registry.find wname with
        | None -> Alcotest.fail ("missing workload " ^ wname)
        | Some w ->
          let prog = Lazy.force w.Ifp_workloads.Workload.prog in
          List.map (fun (cname, config) -> (wname ^ "/" ^ cname, config, prog)) configs)
      [ "treeadd"; "mst"; "ft"; "power" ]
  in
  let verdicts =
    Ifp_campaign.Pool.run ~workers:2
      (Array.of_list
         (List.map
            (fun (name, config, prog) () ->
              List.map Oracle.to_line (fst (Oracle.agree name config prog)))
            pairs))
  in
  List.iteri
    (fun i (name, _, _) -> Alcotest.(check (list string)) name [] verdicts.(i))
    pairs

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
      (fun engine ->
        let run () = Vm.run ~config:{ config with Vm.engine } recur in
        List.iter
          (fun (where, r) ->
            Alcotest.(check bool)
              (Printf.sprintf "%s: %s on %s" name (Engines.to_string engine)
                 where)
              true
              (r.Vm.outcome = Vm.Aborted Vm.Stack_overflow))
          [
            ("main domain", run ());
            ("spawned domain", Domain.join (Domain.spawn run));
          ])
      Engines.all
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

(* ---- subobject pointer through memory ------------------------------- *)

let test_subobj_through_memory () =
  (* [&p->a[2]] is parked in a heap cell and reloaded before use: the
     reload is a promote, which reads the subobject index that the gep's
     ifpidx wrote into the tag and narrows to the field from it (a
     register-resident derived pointer keeps its bounds and never takes
     that path). [ok] stays inside the field; [escape] writes one
     element past it, into [b]. *)
  let prog last =
    let src =
      Printf.sprintf
        "struct pair {\n\
        \  i64 a[4];\n\
        \  i64 b;\n\
         };\n\
         i64 main() {\n\
        \  let p: pair* = malloc(pair);\n\
        \  p->b = 1;\n\
        \  let h: i64** = malloc(i64*, 1);\n\
        \  h[0] = &p->a[2];\n\
        \  let r: i64* = h[0];\n\
        \  r[0] = 5;\n\
        \  r[%d] = 6;\n\
        \  return (p->a[2] + p->a[3] + p->b);\n\
         }\n"
        last
    in
    match Frontend.check ~file:"subobj_mem.minic" src with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  let run name prog =
    List.map
      (fun (cname, config) ->
        let failures, r = Oracle.agree (name ^ "/" ^ cname) config prog in
        Alcotest.(check (list string))
          (name ^ "/" ^ cname) [] (List.map Oracle.to_line failures);
        (cname, r))
      configs
  in
  let ok = run "subobj-mem" (prog 1) in
  Alcotest.(check (list string))
    "subobj-mem equivalence" []
    (List.map Oracle.to_line
       (Oracle.equivalence ~baseline:(List.assoc "baseline" ok) ok));
  (* the reloaded pointer is narrowed to [a] only where narrowing is on *)
  List.iter
    (fun (cname, r) ->
      let trapped =
        match r.Vm.outcome with Vm.Trapped _ -> true | _ -> false
      in
      Alcotest.(check bool)
        ("subobj-mem-escape/" ^ cname ^ " traps")
        (List.mem cname [ "ifp-subheap"; "ifp-wrapped"; "ifp-mixed" ])
        trapped)
    (run "subobj-mem-escape" (prog 2))

(* ---- multi-step geps ------------------------------------------------ *)

(* The closure engine fuses every gep made of fields and indexes into one
   address closure: [a[i].f], [s->arr[i]], [a[i].arr[j]], chains of
   by-value structs, steps with a nonzero subobject-index delta, loads
   and stores, in instrumented and legacy (uninstrumented) functions. *)
let gep_src =
  {|struct Pair { i64 a; i64 b; };
struct Row { i64 id; Pair cells[4]; i64 vals[4]; i32 tag; };
struct Grid { i64 n; Row rows[3]; Pair last; };
struct Inner { i64 k; Pair p; };
struct Outer { i64 h; Inner mid; Inner inner[2]; };

legacy i64 legacy_sum(Grid* g) {
  let s: i64 = 0;
  let i: i64 = 0;
  while (i < 3) {
    let j: i64 = 0;
    while (j < 4) {
      g->rows[i].cells[j].b = g->rows[i].cells[j].a + i;
      s = s + g->rows[i].cells[j].b + g->rows[i].vals[j];
      j = j + 1;
    }
    g->rows[i].tag = cast(i32, s);
    i = i + 1;
  }
  return s + g->last.b;
}

i64 fill(Grid* g, i64 seed) {
  let i: i64 = 0;
  while (i < 3) {
    g->rows[i].id = seed + i;
    let j: i64 = 0;
    while (j < 4) {
      g->rows[i].cells[j].a = i * 10 + j;
      g->rows[i].vals[j] = g->rows[i].cells[j].a * 2;
      j = j + 1;
    }
    i = i + 1;
  }
  g->last.b = g->rows[2].cells[3].a;
  return g->rows[1].id + g->rows[2].vals[3];
}

i64 main() {
  let ps: Pair* = malloc(Pair, 8);
  let k: i64 = 0;
  while (k < 8) {
    ps[k].a = k;
    ps[k].b = ps[k].a * 3;
    k = k + 1;
  }
  let g: Grid* = malloc(Grid);
  let r: i64 = fill(g, 100) + legacy_sum(g);
  let o: Outer* = malloc(Outer);
  o->mid.p.b = 7;
  o->mid.k = 3;
  o->inner[1].p.a = o->mid.p.b + o->mid.k;
  var loc: Grid;
  let lp: Grid* = &loc;
  lp->rows[1].cells[2].a = ps[5].b;
  lp->rows[0].vals[3] = lp->rows[1].cells[2].a + o->inner[1].p.a;
  let x: i64 = g->rows[1].cells[k - 6].a;
  return r + ps[7].b + lp->rows[0].vals[3] + g->rows[0].tag + x;
}
|}

(* a subobject overflow: the two-step gep [&row->buf[j]] narrows to the
   12-byte field [buf], and an 8-byte store at [buf + 8] runs 4 bytes
   past it into [after]. The pointer stays inside the field, so this is
   the access-size check, not a poisoned dereference *)
let gep_escape_src =
  {|struct Row { i64 id; i8 buf[12]; i32 after; };

i64 main() {
  let row: Row* = malloc(Row);
  row->after = 1;
  let j: i64 = 0;
  while (j < 12) {
    row->buf[j] = cast(i8, j);
    j = j + 4;
  }
  let q: i64* = cast(i64*, &row->buf[j - 4]);
  q[0] = 5;
  return cast(i64, row->after);
}
|}

let test_multi_step_geps () =
  let parse name src =
    match Frontend.check ~file:name src with Ok p -> p | Error e -> Alcotest.fail e
  in
  let run name prog =
    List.map
      (fun (cname, config) ->
        let failures, r = Oracle.agree (name ^ "/" ^ cname) config prog in
        Alcotest.(check (list string)) (name ^ "/" ^ cname) [] (List.map Oracle.to_line failures);
        (cname, r))
      configs
  in
  let ok = run "multi-gep" (parse "multi_gep.minic" gep_src) in
  Alcotest.(check (list string)) "multi-gep equivalence" []
    (List.map Oracle.to_line (Oracle.equivalence ~baseline:(List.assoc "baseline" ok) ok));
  List.iter
    (fun (cname, r) ->
      match (cname, r.Vm.outcome) with
      | "baseline", Vm.Finished _ -> ()
      | "baseline", _ -> Alcotest.fail "multi-gep-escape: baseline must finish"
      | _, Vm.Trapped (Trap.Bounds_violation { lo; hi; size; ptr = _ }) ->
        Alcotest.(check int64) (cname ^ ": the field's 12 bytes") 12L (Int64.sub hi lo);
        Alcotest.(check int) (cname ^ ": access size") 8 size
      | _, o ->
        Alcotest.fail
          (Printf.sprintf "multi-gep-escape/%s: %s, not a bounds violation" cname
             (match o with
             | Vm.Trapped t -> Trap.to_string t
             | Vm.Finished v -> Printf.sprintf "finished %Ld" v
             | Vm.Aborted a -> Vm.abort_reason_string a)))
    (run "multi-gep-escape" (parse "multi_gep_escape.minic" gep_escape_src))

(* A gep whose last field lies outside the incoming bounds: [rows[i]]
   runs off the 3-row array from i = 3 on. Narrowing must never widen
   the bounds to that field's range; they stay the object's, so
   [ifpadd] poisons the address and the store traps. *)
let widen_src =
  {|struct Row { i64 id; i64 vals[4]; };
struct Grid { i64 n; Row rows[3]; };

i64 main() {
  let g: Grid* = malloc(Grid);
  let i: i64 = 0;
  while (i < 60) {
    g->rows[i].vals[0] = 7;
    i = i + 1;
  }
  return 1;
}
|}

let test_narrowing_never_widens () =
  let prog =
    match Frontend.check ~file:"widen.minic" widen_src with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  List.iter
    (fun cname ->
      let name = "widen/" ^ cname in
      let failures, r = Oracle.agree name (List.assoc cname configs) prog in
      Alcotest.(check (list string)) name [] (List.map Oracle.to_line failures);
      match (cname, r.Vm.outcome) with
      | "baseline", Vm.Finished 1L | ("ifp-subheap" | "ifp-wrapped"), Vm.Trapped _ -> ()
      | _, o ->
        Alcotest.fail
          (Printf.sprintf "%s: %s" name
             (match o with
             | Vm.Trapped t -> Trap.to_string t
             | Vm.Finished v -> Printf.sprintf "finished %Ld" v
             | Vm.Aborted a -> Vm.abort_reason_string a)))
    [ "baseline"; "ifp-subheap"; "ifp-wrapped" ]

(* ---- armed fault runs ----------------------------------------------- *)

(* An armed injector changes only the check every access runs: each
   class's corruption, and everything after it, must be the same on
   every engine. The signature includes the corruptions performed. *)
let test_armed_runs_agree () =
  let victims =
    [
      (Victim.name, Victim.program ());
      (Victim.temporal_name, Victim.temporal_program ());
    ]
  in
  let armed_configs =
    [
      ("ifp-wrapped", Vm.ifp_wrapped);
      ("ifp-subheap", Vm.ifp_subheap);
      ("ifp-subheap-t", { Vm.ifp_subheap with temporal = true });
    ]
  in
  let fired = ref 0 in
  List.iter
    (fun (vname, prog) ->
      List.iter
        (fun cls ->
          List.iter
            (fun seed ->
              List.iter
                (fun (cname, config) ->
                  let plan = Fault.default_plan cls ~seed:(Int64.of_int seed) in
                  let name =
                    Printf.sprintf "%s/%s/%d/%s" vname (Fault.class_name cls) seed
                      cname
                  in
                  let failures, r =
                    Oracle.agree name
                      { config with Vm.fault_plan = Some plan; max_cycles = 2_000_000 }
                      prog
                  in
                  Alcotest.(check (list string))
                    name [] (List.map Oracle.to_line failures);
                  if r.Vm.fault_injections <> [] then incr fired)
                armed_configs)
            [ 0; 1 ])
        Fault.all_classes)
    victims;
  (* the agreement means something only where the faults land *)
  Alcotest.(check bool) "most armed runs inject" true (!fired * 2 > 2 * 8 * 2 * 3)

(* ---- guest output cap ----------------------------------------------- *)

let test_output_cap () =
  (* a printing loop would fill host memory long before the default
     cycle budget trips: every engine aborts it at the same line *)
  let src =
    "i64 main() {\n\
    \  let i: i64 = 0;\n\
    \  while (1) {\n\
    \    __print_i64(i);\n\
    \    i = i + 1;\n\
    \  }\n\
    \  return 0;\n\
     }\n"
  in
  let prog =
    match Frontend.check ~file:"print_flood.minic" src with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  List.iter
    (fun cname ->
      let name = "print-flood/" ^ cname in
      let failures, r = Oracle.agree name (List.assoc cname configs) prog in
      Alcotest.(check (list string)) name [] (List.map Oracle.to_line failures);
      Alcotest.(check bool) (name ^ " aborts") true
        (match r.Vm.outcome with
        | Vm.Aborted (Vm.Out_of_memory _) -> true
        | _ -> false);
      Alcotest.(check int) (name ^ " keeps the capped output")
        Vm.max_output_lines (List.length r.Vm.output))
    [ "baseline"; "ifp-subheap"; "ifp-wrapped" ]

(* ---- control flow ---------------------------------------------------- *)

(* The closure engine unwinds [return], [break] and [continue] through a
   status word, not exceptions: each shape below must agree with the
   reference and return its checksum. *)
let control_flow_cases =
  [
    ( "return in nested loops",
      "i64 find(i64 n, i64 k) {\n\
      \  let i: i64 = 0;\n\
      \  let j: i64 = 0;\n\
      \  while (i < n) {\n\
      \    j = 0;\n\
      \    while (j < n) {\n\
      \      if (i * n + j == k) {\n\
      \        if (j > 0) { return i * 100 + j; }\n\
      \        return 0 - 1;\n\
      \      }\n\
      \      j = j + 1;\n\
      \    }\n\
      \    i = i + 1;\n\
      \  }\n\
      \  return 0 - 2;\n\
       }\n\
       i64 main() {\n\
      \  let a: i64 = find(5, 13);\n\
      \  let b: i64 = find(5, 10);\n\
      \  let c: i64 = find(3, 100);\n\
      \  __print_i64(a);\n\
      \  __print_i64(b);\n\
      \  __print_i64(c);\n\
      \  return a + b + c;\n\
       }\n",
      200L );
    ( "break and continue nested",
      "i64 main() {\n\
      \  let total: i64 = 0;\n\
      \  let i: i64 = 0;\n\
      \  let j: i64 = 0;\n\
      \  while (i < 6) {\n\
      \    i = i + 1;\n\
      \    if (i == 2) { continue; }\n\
      \    j = 0;\n\
      \    while (1) {\n\
      \      j = j + 1;\n\
      \      if (j > i) { break; }\n\
      \      if (j % 2 == 0) { continue; }\n\
      \      total = total + j;\n\
      \    }\n\
      \    if (i == 5) { break; }\n\
      \    total = total + 100;\n\
      \  }\n\
      \  return total;\n\
       }\n",
      318L );
    ( "continue as last statement",
      "i64 main() {\n\
      \  let i: i64 = 0;\n\
      \  let s: i64 = 0;\n\
      \  while (i < 10) {\n\
      \    i = i + 1;\n\
      \    s = s + i;\n\
      \    continue;\n\
      \  }\n\
      \  while (i < 20) {\n\
      \    i = i + 1;\n\
      \    if (i % 3 == 0) { s = s + 1000; continue; }\n\
      \  }\n\
      \  return s;\n\
       }\n",
      3055L );
    ( "early return from void",
      "void fill(i64* p, i64 n) {\n\
      \  let i: i64 = 0;\n\
      \  while (1) {\n\
      \    if (i == n) { return; }\n\
      \    p[i] = i * i;\n\
      \    i = i + 1;\n\
      \  }\n\
       }\n\
       i64 main() {\n\
      \  let p: i64* = malloc(i64, 8);\n\
      \  fill(p, 8);\n\
      \  fill(p, 0);\n\
      \  let s: i64 = 0;\n\
      \  let i: i64 = 0;\n\
      \  while (i < 8) {\n\
      \    s = s + p[i];\n\
      \    i = i + 1;\n\
      \  }\n\
      \  free(p);\n\
      \  return s;\n\
       }\n",
      140L );
    ( "recursion returns through loops",
      "i64 fib(i64 n) {\n\
      \  while (1) {\n\
      \    if (n < 2) { return n; }\n\
      \    return fib(n - 1) + fib(n - 2);\n\
      \  }\n\
      \  return 0 - 1;\n\
       }\n\
       i64 depth(i64 n) {\n\
      \  let acc: i64 = 0;\n\
      \  let i: i64 = 0;\n\
      \  while (i < 3) {\n\
      \    i = i + 1;\n\
      \    if (n == 0) { return 1; }\n\
      \    acc = acc + depth(n - 1);\n\
      \  }\n\
      \  return acc;\n\
       }\n\
       i64 main() {\n\
      \  return fib(12) * 1000 + depth(3);\n\
       }\n",
      144027L );
    ( "return from main in a loop",
      "i64 main() {\n\
      \  let i: i64 = 0;\n\
      \  while (1) {\n\
      \    while (1) {\n\
      \      i = i + 1;\n\
      \      if (i == 7) { return i * 6; }\n\
      \    }\n\
      \  }\n\
      \  return 0;\n\
       }\n",
      42L );
  ]

let test_control_flow () =
  List.iter
    (fun (case, src, expect) ->
      let prog =
        match Frontend.check ~file:"control_flow.minic" src with
        | Ok p -> p
        | Error e -> Alcotest.fail (case ^ ": " ^ e)
      in
      List.iter
        (fun cname ->
          let name = case ^ "/" ^ cname in
          let failures, r = Oracle.agree name (List.assoc cname configs) prog in
          Alcotest.(check (list string)) name [] (List.map Oracle.to_line failures);
          Alcotest.(check string) (name ^ " value")
            (Vm.outcome_string (Vm.Finished expect))
            (Vm.outcome_string r.Vm.outcome))
        [ "baseline"; "ifp-subheap"; "ifp-wrapped" ])
    control_flow_cases

(* ---- local registration --------------------------------------------- *)

let test_local_registration () =
  (* address-taken locals in a function called repeatedly: every
     registration resolves its layout through the per-run type table,
     and every repeat must charge the same on every engine *)
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

(* ---- comparisons with a literal on the left ------------------------- *)

(* the parser writes [a > b] as [b < a], so [k > 0] reaches the engines
   as [0 < k]; the closure compiler mirrors it to [k > 0]. Both-literal,
   variable and expression operands, in conditions and as values *)
let test_literal_left_comparisons () =
  let prog =
    Parser.parse
      {|
      i64 main() {
        let acc: i64 = 0;
        let k: i64 = 0 - 3;
        while (4 > k) {
          if (k > 0) { acc = acc + 1; }
          if (k >= 1) { acc = acc + 10; }
          if (0 == k) { acc = acc + 100; }
          if (0 != k * 2) { acc = acc + 1000; }
          if (k * 2 > 1) { acc = acc + 10000; }
          let b: i64 = (k > 2) + (k - 1 >= 0) * 2 + (7 == k) * 4;
          acc = acc + b * 100000;
          k = k + 1;
        }
        if (2 > 1) { acc = acc + 3; }
        if (1 >= 2) { acc = acc + 5; }
        return acc;
      }
      |}
  in
  List.iter
    (fun (cname, config) -> check_all_engines_agree ("literal-left/" ^ cname) config prog)
    configs;
  match (Vm.run prog).outcome with
  | Vm.Finished n -> Alcotest.(check int64) "value" 736_136L n
  | _ -> Alcotest.fail "did not finish"

(* ---- prepared images ------------------------------------------------ *)

(* running a shared image is running the program: under every oracle
   config, temporal ones included, on every engine, and armed, one
   image per front-end key gives the signature Vm.run gives *)
let test_images_run_like_run () =
  let workload name =
    match Ifp_workloads.Registry.find name with
    | Some w -> (name, Lazy.force w.Ifp_workloads.Workload.prog)
    | None -> Alcotest.fail ("missing workload " ^ name)
  in
  let programs =
    List.map
      (fun seed ->
        ( Printf.sprintf "fuzz seed %Ld" seed,
          Ifp_fuzz.Gen.generate ~knobs:Ifp_fuzz.Gen.quick ~seed () ))
      [ 1L; 2L; 3L ]
    @ List.map workload [ "coremark"; "ks"; "wolfcrypt-dh" ]
  in
  let subheap = List.assoc "ifp-subheap" Oracle.configs in
  let armed =
    ( "ifp-subheap-armed",
      { subheap with Vm.fault_plan = Some (Fault.default_plan Fault.Tag_flip ~seed:3L) } )
  in
  List.iter
    (fun (pname, prog) ->
      let image = Vm.preparer prog in
      List.iter
        (fun (cname, cfg) ->
          List.iter
            (fun engine ->
              let config = { cfg with Vm.engine } in
              Alcotest.(check string)
                (String.concat "/" [ pname; cname; Engines.to_string engine ])
                (Oracle.result_sig (Vm.run ~config prog))
                (Oracle.result_sig (Vm.run_image ~config (image config))))
            Engines.all)
        ((armed :: Oracle.configs) @ Oracle.temporal_configs))
    programs

(* an image runs only under a config with its front-end key *)
let test_image_key_mismatch () =
  let prog = Ifp_fuzz.Gen.generate ~knobs:Ifp_fuzz.Gen.quick ~seed:1L () in
  let base = Vm.prepare Vm.baseline prog and ifp = Vm.prepare Vm.ifp_subheap prog in
  let refused name config image =
    List.iter
      (fun engine ->
        match Vm.run_image ~config:{ config with Vm.engine } image with
        | _ -> Alcotest.failf "%s: ran on %s" name (Engines.to_string engine)
        | exception Invalid_argument _ -> ())
      Engines.all
  in
  refused "baseline image, IFP config" Vm.ifp_subheap base;
  refused "IFP image, baseline config" Vm.baseline ifp;
  refused "other infer_alloc_types"
    { Vm.ifp_subheap with infer_alloc_types = true } ifp;
  (* allocator, promote, narrowing and temporal mode are run-time choices *)
  List.iter
    (fun config -> ignore (Vm.run_image ~config ifp))
    [ Vm.ifp_wrapped; Vm.no_promote Vm.Alloc_wrapped; Vm.no_narrowing Vm.Alloc_subheap;
      { Vm.ifp_mixed with temporal = true } ]

(* ---- dispatch ------------------------------------------------------- *)

let test_engines_dispatch () =
  (* Engines.of_string must round-trip the CLI spellings; routing on
     config.engine is exercised by every Oracle.agree call *)
  List.iter
    (fun eng ->
      let name = Engines.to_string eng in
      Alcotest.(check bool)
        ("of_string " ^ name) true
        (Engines.of_string name = Some eng))
    Engines.all;
  Alcotest.(check bool) "unknown engine" true (Engines.of_string "jit" = None)

(* ---- production engine ---------------------------------------------- *)

let test_production_engine () =
  (* every engine gives the same result, so no result shows which one
     ran: pin the choice itself *)
  let engine name (c : Vm.config) =
    Alcotest.(check string) name "closure" (Engines.to_string c.engine)
  in
  engine "Vm.default_config" Vm.default_config;
  List.iter
    (fun (name, c) -> engine ("Report " ^ name) c)
    (Report.variants @ Report.configs);
  (* the head is Oracle.agree's reference, so it fixes the site of every
     engines/... failure key *)
  Alcotest.(check (list string))
    "Engines.all order" [ "vm"; "vm-ref"; "closure" ] Engines.names

let tests =
  [
    Alcotest.test_case "three engines agree on workloads" `Quick test_workloads;
    Alcotest.test_case "three engines agree on failure paths" `Quick
      test_failure_paths;
    Alcotest.test_case "subobject pointer through memory" `Quick
      test_subobj_through_memory;
    Alcotest.test_case "multi-step geps" `Quick test_multi_step_geps;
    Alcotest.test_case "narrowing never widens bounds" `Quick
      test_narrowing_never_widens;
    Alcotest.test_case "armed fault runs agree" `Quick test_armed_runs_agree;
    Alcotest.test_case "guest output is capped" `Quick test_output_cap;
    Alcotest.test_case "control flow without exceptions" `Quick test_control_flow;
    Alcotest.test_case "local registration" `Quick
      test_local_registration;
    Alcotest.test_case "literal-left comparisons" `Quick test_literal_left_comparisons;
    Alcotest.test_case "prepared images run like Vm.run" `Quick
      test_images_run_like_run;
    Alcotest.test_case "image front-end key checked" `Quick test_image_key_mismatch;
    Alcotest.test_case "engine dispatch and names" `Quick test_engines_dispatch;
    Alcotest.test_case "closure is the production engine" `Quick
      test_production_engine;
  ]
