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

(* the reported line is that of the lookahead token when the error is
   raised: after the offending token is consumed, and at EOF the line
   after all trailing whitespace; a lex error surfaces only when lexing
   reaches it *)
let test_error_lines () =
  List.iter
    (fun (src, expected) ->
      match Frontend.check ~file:"f" src with
      | Ok _ -> Alcotest.fail ("accepted invalid program: " ^ src)
      | Error m -> Alcotest.(check string) (String.escaped src) expected m)
    [
      ( "i64 main() {\n return 1\n}\n\n\n",
        "f:3: parse error: expected ';', got '}'" );
      ( "i64 main() {\n  return 0;\n}\n/* open\n comment\n",
        "f:5: lex error: unterminated comment" );
      ("struct 5 { };\n@", "f:1: parse error: expected struct name, got 5");
      ( "i64 main() {\n  return (1 +\n    2) @ 3;\n}\n",
        "f:3: lex error: unexpected character @" );
      ( "i64 main() {\n  return 1 +\n    2 *\n    ;\n}\n",
        "f:4: parse error: unexpected ';' in expression" );
      ( "i64 main() {\n  let x: i64 = 1 +\n    y;\n  return x;\n}\n",
        "f:3: parse error: unknown identifier y" );
    ]

(* one nesting limit bounds the parser's recursion: 10^5 nested
   parentheses are a located error, returned at once *)
let test_deep_nesting () =
  let repeat k s = String.concat "" (List.init k (fun _ -> s)) in
  let deep k o c = "i64 main() {\n  return " ^ repeat k o ^ "1" ^ repeat k c ^ ";\n}\n" in
  let blocks k =
    "i64 main() {\n  " ^ repeat k "if (1) { " ^ "return 1;" ^ repeat k " }"
    ^ "\n  return 0;\n}\n"
  in
  let too_deep = "t.minic:2: parse error: nesting deeper than 256" in
  List.iter
    (fun (what, src) ->
      match Frontend.check ~file:"t.minic" src with
      | Error m -> Alcotest.(check string) what too_deep m
      | Ok _ -> Alcotest.fail (what ^ " accepted"))
    [
      ("10^5 parentheses", deep 100_000 "(" ")");
      ("300 negations", deep 300 "-" "");
      ("300 blocks", blocks 300);
    ];
  (* the limit counts every open block (the function body too), the
     statement's expression and each parenthesis *)
  Alcotest.(check int64) "254 parentheses" 1L (ret (deep 254 "(" ")"));
  Alcotest.(check int64) "254 blocks" 1L (ret (blocks 254));
  match Frontend.check ~file:"t.minic" (deep 255 "(" ")") with
  | Error m -> Alcotest.(check string) "255 parentheses" too_deep m
  | Ok _ -> Alcotest.fail "255 parentheses accepted"

(* a declared type whose size overflows, or exceeds the heap arena, is a
   type error naming the declaration, not a wrapped size *)
let test_oversized_types () =
  List.iter
    (fun (src, expected) ->
      match Frontend.check ~file:"t.minic" src with
      | Ok _ -> Alcotest.fail ("accepted oversized type: " ^ src)
      | Error m -> Alcotest.(check string) src expected m)
    [
      ( "struct S { i64 a[4611686018427387903]; };\ni64 main() { return sizeof(S); }",
        "t.minic: type error: struct S field a: size of i64[4611686018427387903] out \
         of range (max 268435456 bytes)" );
      (* 2^60 + 1 elements of 8 bytes wrap to 8 bytes *)
      ( "i64 main() {\n  var a: i64[1152921504606846977];\n  return 0;\n}",
        "t.minic: type error: main: local a: size of i64[1152921504606846977] out \
         of range (max 268435456 bytes)" );
      ( "struct B { i8 a[268435456]; i8 b; };\n\
         i64 main() { let p: B* = malloc(B); return 0; }",
        "t.minic: type error: struct B: size of struct B out of range (max \
         268435456 bytes)" );
    ];
  (* MiniC's malloc takes no array type: the check on the allocated type
     itself is reached through the IR *)
  let huge = Ctype.Array (Ctype.I64, (1 lsl 60) + 1) in
  let prog =
    Ir.program ~tenv:Ctype.empty_tenv ~globals:[]
      [ Ir.func "main" [] Ctype.I64
          [ Ir.Expr (Ir.Malloc (huge, Ir.Int 1L)); Ir.Return (Some (Ir.Int 0L)) ] ]
  in
  (match Typecheck.check_program prog with
  | () -> Alcotest.fail "accepted oversized malloc"
  | exception Typecheck.Type_error m ->
    Alcotest.(check string) "malloc"
      "main: malloc: size of i64[1152921504606846977] out of range (max 268435456 bytes)" m);
  Alcotest.(check int) "the limit is the heap arena" (1 lsl Ifp_vm.Memmap.heap_size_log2)
    Typecheck.max_object_size;
  (* the largest object still fits *)
  ignore (parse "struct B { i8 a[268435456]; };\ni64 main() { return sizeof(B); }"
          |> Typecheck.check_program)

(* a dimension literal outside [0, max_int] is a located parse error, not
   a size wrapped by [Int64.to_int] (to 4, or to -1) *)
let test_array_dimension_range () =
  List.iter
    (fun (src, expected) ->
      match Frontend.check ~file:"t.minic" src with
      | Ok _ -> Alcotest.fail ("accepted wrapping dimension: " ^ src)
      | Error m -> Alcotest.(check string) src expected m)
    [
      ( "struct S { i64 a[0x8000000000000004]; };\ni64 main() { return sizeof(S); }",
        "t.minic:1: parse error: array dimension 9223372036854775812 out of range" );
      ( "global i64 g[0xffffffffffffffff];\ni64 main() { return 0; }",
        "t.minic:1: parse error: array dimension 18446744073709551615 out of range" );
      ( "i64 main() {\n  var a: i64[2][0x4000000000000000];\n  return 0;\n}",
        "t.minic:2: parse error: array dimension 4611686018427387904 out of range" );
      (* max_int itself parses; the type checker bounds the size *)
      ( "struct S { i8 a[0x3fffffffffffffff]; };\ni64 main() { return sizeof(S); }",
        "t.minic: type error: struct S field a: size of i8[4611686018427387903] out \
         of range (max 268435456 bytes)" );
    ]

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i =
    if i + nn > nh then false
    else if String.equal (String.sub hay i nn) needle then true
    else go (i + 1)
  in
  nn = 0 || go 0

(* in type position, array extents come before a '*', in a
   declaration's order: [i64[4][2]*] points to what [var x: i64[4][2]]
   and [global i64 g[4][2]] declare *)
let test_type_position_arrays () =
  let src =
    "global i64 g[4][2];\n\
     global i64[4][2]* gp;\n\
     i64 main() {\n\
    \  var x: i64[4][2];\n\
    \  let p: i64[4][2]* = &x;\n\
    \  gp = &g;\n\
    \  (*p)[3][1] = 7;\n\
    \  (*gp)[3][1] = 1;\n\
    \  return x[3][1] + g[3][1] + sizeof(i64[4][2]*);\n\
     }\n"
  in
  let prog = parse src in
  let main = Option.get (Ir.find_func prog "main") in
  let x_ty = Ctype.Array (Ctype.Array (Ctype.I64, 2), 4) in
  let same what want got = Alcotest.(check bool) what true (Ctype.equal want got) in
  (match (prog.globals, main.body) with
  | [ g; gp ], Ir.Decl_local (_, xt) :: Ir.Let (_, pt, _) :: _ ->
    same "var x: i64[4][2]" x_ty xt;
    same "global i64 g[4][2]" x_ty g.gty;
    same "let p: i64[4][2]*" (Ctype.Ptr x_ty) pt;
    same "global i64[4][2]* gp" (Ctype.Ptr x_ty) gp.gty
  | _ -> Alcotest.fail "unexpected program");
  Alcotest.(check int64) "(*p)[3][1] is x[3][1]" 16L (ret src);
  (* extents after a [var] type's last '*' are its suffix *)
  List.iter
    (fun (decl, want) ->
      match (parse ("i64 main() {\n  var a: " ^ decl ^ ";\n  return 0;\n}")).funcs with
      | [ { Ir.body = Ir.Decl_local (_, t) :: _; _ } ] -> same decl want t
      | _ -> Alcotest.fail "unexpected program")
    [
      ("i64*[3]", Ctype.Array (Ctype.Ptr Ctype.I64, 3));
      ("i64[2]*[3]", Ctype.Array (Ctype.Ptr (Ctype.Array (Ctype.I64, 2)), 3));
    ];
  (* an array type with no '*' after it is no type outside a [var]; the
     range check and the undeclared-struct check apply in type position
     too *)
  List.iter
    (fun (src, expected) ->
      match Frontend.check ~file:"t.minic" src with
      | Ok _ -> Alcotest.fail ("accepted: " ^ src)
      | Error m -> Alcotest.(check string) src expected m)
    [
      ( "i64 main() {\n  let p: i64[4] = 0;\n  return 0;\n}",
        "t.minic:2: parse error: expected '*' after array extents, got '='" );
      ( "i64 main() {\n  return sizeof(i64[4][2]);\n}",
        "t.minic:2: parse error: expected '*' after array extents, got ')'" );
      ( "global i64[4][2] g;\ni64 main() { return 0; }",
        "t.minic:1: parse error: expected '*' after array extents, got g" );
      ( "i64 main() {\n  let p: i64[4]* = null(i64[4]);\n  return 0;\n}",
        "t.minic:2: parse error: expected '*' after array extents, got ')'" );
      ( "i64 main() {\n  let p: i64[0x8000000000000000]* = cast(i64*, 0);\n  return 0;\n}",
        "t.minic:2: parse error: array dimension 9223372036854775808 out of range" );
      ( "i64 main() {\n  return sizeof(i64[2][0xffffffffffffffff]*);\n}",
        "t.minic:2: parse error: array dimension 18446744073709551615 out of range" );
      ( "i64 main() {\n  let p: struct t[2]* = cast(struct t*, 0);\n  return 0;\n}",
        "t.minic:2: parse error: undeclared struct t used by value" );
      ( "i64 main() {\n  return sizeof(struct t*[2]*) + sizeof(struct t[2]*);\n}",
        "t.minic:2: parse error: undeclared struct t used by value" );
      (* no declaration checks the size of an array a pointer type
         spells: a gep through the pointer does *)
      ( "i64 f(i64[1152921504606846977]* p) {\n  return (*p)[1];\n}\n\
         i64 main() { return 0; }",
        "t.minic: type error: f: gep: size of i64[1152921504606846977] out of range (max \
         268435456 bytes)" );
    ]

(* a pointer to an array prints its leading index as ["(*p)[i]"], and a
   null one as a cast, both of which re-parse to the same program *)
let test_pointer_to_array_roundtrip () =
  let src =
    "global i64 board[16];\n\
     i64 main() {\n\
    \  var rows: i64[4][8];\n\
    \  let b: i64[16]* = &board;\n\
    \  let r: i64[4][8]* = cast(i64[4][8]*, 0);\n\
    \  r = &rows;\n\
    \  let k: i64 = 0;\n\
    \  while (k < 16) {\n\
    \    (*b)[k] = k;\n\
    \    (*r)[k % 4][k % 8] = (*b)[k] * 2;\n\
    \    k = k + 1;\n\
    \  }\n\
    \  return (*r)[3][7] + (*b)[15];\n\
     }\n"
  in
  let prog = parse src in
  let printed = Ir_pp.program_to_string prog in
  List.iter
    (fun form -> Alcotest.(check bool) ("prints " ^ form) true (contains printed form))
    [ "(*b)[k]"; "var rows: i64[4][8];"; "cast(i64[4][8]*, 0)" ];
  Alcotest.(check bool) "reparses equal" true (Ir.equal_program prog (parse printed));
  Alcotest.(check int64) "value" 45L (ret printed)

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

(* [Ir_pp.float_lit] as it stood before its integral fast path, frozen:
   job digests hash the printed text, so the printer must keep producing
   exactly this for every float *)
let frozen_float_lit f =
  let fallback f = Printf.sprintf "f64_bits(0x%Lx)" (Int64.bits_of_float f) in
  if
    f <> f (* nan *)
    || f = infinity || f = neg_infinity
    || f < 0.0
    || (f = 0.0 && not (Int64.equal (Int64.bits_of_float f) 0L))
  then fallback f
  else begin
    let exact s =
      match float_of_string_opt s with
      | Some g -> Int64.equal (Int64.bits_of_float g) (Int64.bits_of_float f)
      | None -> false
    in
    let wellformed s =
      String.length s > 0
      && s.[0] >= '0'
      && s.[0] <= '9'
      && String.for_all (fun c -> (c >= '0' && c <= '9') || c = '.') s
      && String.fold_left (fun n c -> if c = '.' then n + 1 else n) 0 s = 1
    in
    let rec shortest p =
      if p > 17 then None
      else
        let s = Printf.sprintf "%.*g" p f in
        if wellformed s && exact s then Some s else shortest (p + 1)
    in
    match shortest 1 with
    | Some s -> s
    | None ->
      let s = Printf.sprintf "%.1074f" f in
      let last = ref (String.length s - 1) in
      while !last > 0 && s.[!last] = '0' do
        decr last
      done;
      let last = if s.[!last] = '.' then !last + 1 else !last in
      let s = String.sub s 0 (last + 1) in
      if wellformed s && exact s then s else fallback f
  end

(* integral values (small, huge, powers of two and their neighbours),
   arbitrary bit patterns, and short decimals *)
let float_gen =
  let open QCheck.Gen in
  let pow2 = map (fun e -> Float.ldexp 1.0 e) (int_range (-1074) 1023) in
  oneof
    [
      map float_of_int (int_bound 1_000_000);
      map Int64.to_float int64;
      pow2;
      map Float.succ pow2;
      map Float.pred pow2;
      map Int64.float_of_bits int64;
      map (fun (n, d) -> float_of_int n /. float_of_int (d + 1))
        (pair (int_bound 100_000) (int_bound 1000));
      map (fun x -> Float.round (x *. 1e6) /. 1e6) (float_bound_inclusive 1e3);
    ]

let prop_float_lit_frozen =
  QCheck.Test.make ~count:3000 ~name:"float literals match the frozen printer"
    (QCheck.make ~print:(fun f -> Printf.sprintf "%h" f) float_gen)
    (fun f -> String.equal (Ir_pp.float_lit f) (frozen_float_lit f))

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
    Alcotest.test_case "error lines" `Quick test_error_lines;
    Alcotest.test_case "nesting limit" `Quick test_deep_nesting;
    Alcotest.test_case "oversized types" `Quick test_oversized_types;
    Alcotest.test_case "array dimension range" `Quick test_array_dimension_range;
    Alcotest.test_case "pretty-printer" `Quick test_pp_roundtrip;
    Alcotest.test_case "type-position arrays" `Quick test_type_position_arrays;
    Alcotest.test_case "pointer-to-array round trip" `Quick test_pointer_to_array_roundtrip;
    QCheck_alcotest.to_alcotest prop_float_lit_frozen;
  ]
