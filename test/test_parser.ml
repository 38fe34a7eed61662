(* Tests for the textual MiniC frontend: lexing, parsing, local type
   inference, and end-to-end runs of parsed programs under the VM. *)

open Core

let parse = Ifp_compiler.Parser.parse

let run ?(config = Vm.baseline) src = Vm.run ~config (parse src)

let ret ?config src =
  match (run ?config src).Vm.outcome with
  | Vm.Finished x -> x
  | Vm.Trapped t -> Alcotest.fail ("trapped: " ^ Trap.to_string t)
  | Vm.Aborted m -> Alcotest.fail ("aborted: " ^ Vm.abort_reason_string m)

let test_arith_and_control () =
  let src =
    {|
    i64 main() {
      let s: i64 = 0;
      let k: i64 = 0;
      while (k < 10) {
        if (k % 2 == 0) { s = s + k; } else { s = s - 1; }
        k = k + 1;
      }
      return s * 2 + (1 << 4) - 0x10;
    }
    |}
  in
  (* s = (0+2+4+6+8) - 5 = 15 *)
  Alcotest.(check int64) "value" 30L (ret src)

let test_structs_and_heap () =
  let src =
    {|
    struct node { i64 value; node* next; };

    i64 sum(node* p) {
      let acc: i64 = 0;
      while (p != null(node)) {
        acc = acc + p->value;
        p = p->next;
      }
      return acc;
    }

    i64 main() {
      let head: node* = null(node);
      let k: i64 = 0;
      while (k < 10) {
        let n: node* = malloc(node);
        n->value = k;
        n->next = head;
        head = n;
        k = k + 1;
      }
      return sum(head);
    }
    |}
  in
  Alcotest.(check int64) "list sum" 45L (ret src);
  Alcotest.(check int64) "list sum (ifp)" 45L (ret ~config:Vm.ifp_subheap src)

let test_stack_arrays_and_address_of () =
  let src =
    {|
    void fill(i64* p, i64 n) {
      let k: i64 = 0;
      while (k < n) { p[k] = k * k; k = k + 1; }
    }

    i64 main() {
      var buf: i64[8];
      fill(&buf[0], 8);
      return buf[7] + buf[2];
    }
    |}
  in
  Alcotest.(check int64) "49+4" 53L (ret src);
  Alcotest.(check int64) "same under ifp" 53L (ret ~config:Vm.ifp_wrapped src)

let test_globals () =
  let src =
    {|
    global i64 counter;
    global i64* gp;

    void bump() { counter = counter + 1; }

    i64 main() {
      bump(); bump(); bump();
      let a: i64* = malloc(i64, 4);
      a[2] = 40;
      gp = a;
      return gp[2] + counter;
    }
    |}
  in
  Alcotest.(check int64) "43" 43L (ret src);
  Alcotest.(check int64) "43 under ifp" 43L (ret ~config:Vm.ifp_subheap src)

let test_floats () =
  let src =
    {|
    i64 main() {
      let x: f64 = 1.5;
      let y: f64 = x * 4.0 + 1.0;
      if (y < 6.9) { return 0; }
      return cast(i64, y);
    }
    |}
  in
  Alcotest.(check int64) "7" 7L (ret src)

let test_struct_member_arrays () =
  let src =
    {|
    struct S { i8 vulnerable[12]; i8 sensitive[12]; };

    i64 main() {
      var boo: S;
      let p: S* = &boo;
      let k: i64 = 0;
      while (k < 12) { p->vulnerable[k] = k; k = k + 1; }
      p->sensitive[0] = 99;
      return cast(i64, p->vulnerable[5]) + cast(i64, p->sensitive[0]);
    }
    |}
  in
  Alcotest.(check int64) "104" 104L (ret src);
  Alcotest.(check int64) "104 under ifp" 104L (ret ~config:Vm.ifp_subheap src)

let test_parsed_overflow_detected () =
  (* the paper's Listing 1/2 written as source text: the intra-object
     overflow must trap under IFP and pass silently under baseline *)
  let src =
    {|
    struct S { i8 vulnerable[12]; i8 sensitive[12]; };
    global S* gv_ptr;

    void foo(i64 off) {
      let p: S* = gv_ptr;
      p->vulnerable[off] = 65;
    }

    i64 main() {
      var boo: S;
      gv_ptr = &boo;
      foo(12);
      return cast(i64, boo.sensitive[0]);
    }
    |}
  in
  (match (run src).Vm.outcome with
  | Vm.Finished x -> Alcotest.(check int64) "baseline silent corruption" 65L x
  | _ -> Alcotest.fail "baseline should finish");
  match (run ~config:Vm.ifp_wrapped src).Vm.outcome with
  | Vm.Trapped _ -> ()
  | _ -> Alcotest.fail "ifp should trap the intra-object overflow"

let test_legacy_functions () =
  let src =
    {|
    legacy i64* lib_pass(i64* p) { return p; }

    i64 main() {
      let a: i64* = malloc(i64, 4);
      let q: i64* = lib_pass(a);
      q[9] = 1;   // out of bounds, but unchecked: bounds cleared at boundary
      return 0;
    }
    |}
  in
  match (run ~config:Vm.ifp_subheap src).Vm.outcome with
  | Vm.Finished _ -> ()
  | _ -> Alcotest.fail "legacy-returned pointer should be unchecked"

let test_malloc_bytes_and_sizeof () =
  let src =
    {|
    struct pair { i64 a; i64 b; };

    i64 main() {
      let p: pair* = cast(pair*, malloc_bytes(sizeof(pair)));
      p->a = 20;
      p->b = 22;
      return p->a + p->b;
    }
    |}
  in
  Alcotest.(check int64) "42" 42L (ret src);
  Alcotest.(check int64) "42 ifp" 42L (ret ~config:Vm.ifp_subheap src)

let test_comments_and_hex () =
  let src =
    {|
    // line comment
    i64 main() {
      /* block
         comment */
      return 0xFF & 0x0F;
    }
    |}
  in
  Alcotest.(check int64) "15" 15L (ret src)

let test_parse_errors () =
  let bad srcs =
    List.iter
      (fun src ->
        match parse src with
        | exception Ifp_compiler.Parser.Parse_error _ -> ()
        | exception Ifp_compiler.Lexer.Lex_error _ -> ()
        | _ -> Alcotest.fail ("parsed invalid program: " ^ src))
      srcs
  in
  bad
    [
      "i64 main( { return 0; }";
      "i64 main() { return unknown_var; }";
      "i64 main() { let x: nosuchtype = 1; return x; }";
      "i64 main() { return 1 + ; }";
      "struct S { i64 }; i64 main() { return 0; }";
      "i64 main() { @ }";
    ];
  (* struct declaration errors are located at the offending struct or
     use *)
  let use = "\ni64 main() { let p: a* = malloc(a); return 0; }" in
  List.iter
    (fun (src, line) ->
      match parse src with
      | exception Ifp_compiler.Parser.Parse_error (_, l) ->
        Alcotest.(check int) ("error line of " ^ String.escaped src) line l
      | _ -> Alcotest.fail ("parsed invalid program: " ^ src))
    [
      ("struct a { i64 x; };\nstruct a { i64 y; };" ^ use, 2);
      ("struct a {\n  a x;\n};" ^ use, 1);
      ("struct a { b x; };\nstruct b { a y; };" ^ use, 2);
      (* a by-value use of an undeclared struct, whose layout sizeof,
         malloc, a stack local or a global would need *)
      ("struct a {\n  struct t x;\n};\ni64 main() { return sizeof(a); }", 2);
      ( "struct a {\n  struct t x[2];\n};\n\
         i64 main() { let p: a* = malloc(a, 1); return 0; }",
        2 );
      ("i64 main() {\n  var x: struct t;\n  return 0;\n}", 2);
      ("global struct t g;\ni64 main() { return 0; }", 1);
    ];
  (* a forward reference by value is not a cycle *)
  ignore (parse ("struct a { b x; };\nstruct b { i64 y; };" ^ use))

(* the one front end every tool loads MiniC through: each kind of error
   comes back as a message naming the file (and the line, when known) *)
let test_frontend_errors () =
  List.iter
    (fun (src, expected) ->
      match Frontend.check ~file:"t.minic" src with
      | Ok _ -> Alcotest.fail ("accepted invalid program: " ^ src)
      | Error m -> Alcotest.(check string) (String.escaped src) expected m)
    [
      ( "i64 main() {\n  return 0 $ 1;\n}",
        "t.minic:2: lex error: unexpected character $" );
      ( "i64 main( { return 0; }",
        "t.minic:1: parse error: expected a type, got '{'" );
      ( "i64 main() {\n  break;\n  return 0;\n}",
        "t.minic: type error: main: break/continue outside loop" );
    ];
  Alcotest.(check bool) "valid program accepted" true
    (Result.is_ok (Frontend.check ~file:"t.minic" "i64 main() { return 7; }"))

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i =
    if i + nn > nh then false
    else if String.equal (String.sub hay i nn) needle then true
    else go (i + 1)
  in
  nn = 0 || go 0

let test_pp_roundtrip () =
  (* parse -> pretty-print -> still contains the expected constructs *)
  let src =
    {|
    struct node { i64 value; node* next; };
    i64 main() {
      let n: node* = malloc(node);
      n->value = 1;
      n->next = null(node);
      let m: node* = n->next;    // pointer load: needs a promote
      if (m != null(node)) { return 1; }
      return n->value;
    }
    |}
  in
  let printed = Ir_pp.program_to_string (parse src) in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("contains " ^ needle) true (contains printed needle))
    [ "malloc"; "->value"; "struct node" ];
  (* the instrumented program shows the inserted IFP forms *)
  let instr, _ = Instrument.run (parse src) in
  Alcotest.(check bool) "instrumented shows promote" true
    (contains (Ir_pp.program_to_string instr) "IFP_Promote")

let tests =
  [
    Alcotest.test_case "arith + control" `Quick test_arith_and_control;
    Alcotest.test_case "structs + heap" `Quick test_structs_and_heap;
    Alcotest.test_case "stack arrays + &" `Quick test_stack_arrays_and_address_of;
    Alcotest.test_case "globals" `Quick test_globals;
    Alcotest.test_case "floats" `Quick test_floats;
    Alcotest.test_case "struct member arrays" `Quick test_struct_member_arrays;
    Alcotest.test_case "parsed overflow detected" `Quick
      test_parsed_overflow_detected;
    Alcotest.test_case "legacy functions" `Quick test_legacy_functions;
    Alcotest.test_case "malloc_bytes + sizeof" `Quick test_malloc_bytes_and_sizeof;
    Alcotest.test_case "comments + hex" `Quick test_comments_and_hex;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "front-end errors located" `Quick test_frontend_errors;
    Alcotest.test_case "pretty-printer" `Quick test_pp_roundtrip;
  ]
