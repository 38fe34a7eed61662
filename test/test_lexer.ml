(* Unit tests for the MiniC lexer. *)

module L = Ifp_compiler.Lexer

let toks src =
  let lx = L.create src in
  let rec go acc =
    match L.next lx with L.EOF -> List.rev acc | t -> go (t :: acc)
  in
  go []

let tok = Alcotest.testable (fun fmt t -> Format.pp_print_string fmt (L.token_to_string t)) ( = )

let test_basic () =
  Alcotest.(check (list tok)) "idents + punct"
    [ L.KW "i64"; L.IDENT "main"; L.PUNCT "("; L.PUNCT ")" ]
    (toks "i64 main()");
  Alcotest.(check (list tok)) "numbers"
    [ L.INT 42L; L.FLOAT 1.5; L.INT 255L ]
    (toks "42 1.5 0xFF")

let test_longest_match () =
  Alcotest.(check (list tok)) "multi-char operators"
    [ L.PUNCT "<<"; L.PUNCT "<="; L.PUNCT "<"; L.PUNCT "->"; L.PUNCT "-";
      L.PUNCT "&&"; L.PUNCT "&" ]
    (toks "<< <= < -> - && &")

let test_comments () =
  Alcotest.(check (list tok)) "comments stripped"
    [ L.INT 1L; L.INT 2L ]
    (toks "1 // x\n/* y\n z */ 2")

let test_line_tracking () =
  let lx = L.create "a\nb\n\nc" in
  ignore (L.next lx);
  ignore (L.next lx);
  ignore (L.next lx);
  Alcotest.(check int) "line 4 after c" 4 (L.line lx)

(* the parser's passes walk one token array: after a rewind the cursor
   yields the same tokens and lines again *)
let test_rewind () =
  let lx = L.create "a\nb c" in
  let walk () =
    let rec go acc =
      let tl = (L.peek lx, L.line lx) in
      if L.next lx = L.EOF then List.rev (tl :: acc) else go (tl :: acc)
    in
    go []
  in
  let first = walk () in
  L.rewind lx;
  Alcotest.(check (list (pair tok int)))
    "same walk"
    [ (L.IDENT "a", 1); (L.IDENT "b", 2); (L.IDENT "c", 2); (L.EOF, 2) ]
    first;
  Alcotest.(check (list (pair tok int))) "after rewind" first (walk ())

let test_errors () =
  (match toks "@" with
  | exception L.Lex_error _ -> ()
  | _ -> Alcotest.fail "expected lex error");
  (match toks "/* unterminated" with
  | exception L.Lex_error _ -> ()
  | _ -> Alcotest.fail "expected unterminated-comment error");
  (* literals past 64 bits, decimal and hex, on line 2 *)
  List.iter
    (fun src ->
      match toks src with
      | exception L.Lex_error (msg, line) ->
        Alcotest.(check (pair string int))
          ("out of range: " ^ src)
          ("integer literal out of range", 2)
          (msg, line)
      | _ -> Alcotest.fail ("expected out-of-range error: " ^ src))
    [
      "return\n99999999999999999999999;";
      "return\n0x1ffffffffffffffff;";
    ]

let test_keywords_vs_idents () =
  Alcotest.(check (list tok)) "keyword recognition"
    [ L.KW "struct"; L.IDENT "structx"; L.IDENT "mystruct"; L.KW "malloc" ]
    (toks "struct structx mystruct malloc")

let tests =
  [
    Alcotest.test_case "basic tokens" `Quick test_basic;
    Alcotest.test_case "longest match" `Quick test_longest_match;
    Alcotest.test_case "comments" `Quick test_comments;
    Alcotest.test_case "line tracking" `Quick test_line_tracking;
    Alcotest.test_case "rewind" `Quick test_rewind;
    Alcotest.test_case "lex errors" `Quick test_errors;
    Alcotest.test_case "keywords vs idents" `Quick test_keywords_vs_idents;
  ]
