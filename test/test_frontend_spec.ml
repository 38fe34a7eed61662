(* The production MiniC lexer and parser against a frozen specification:
   verbatim copies of the on-demand lexer and three-lex parser they
   replaced (test/spec). On byte-mutated MiniC sources, both must agree
   on the token stream and on the parsed program or the exact error,
   and [Frontend.check] must answer every input with a program or a
   located error, never an exception. The permitted disagreements are
   the nesting limit, on inputs that can nest deeper than it, the range
   of array dimensions, the line of an error about a token the parser
   has taken, which the spec reports at the next token's line, and array
   extents in type position, which only the parser accepts. *)

open Ifp_compiler
module L = Lexer
module SL = Spec_frontend.Lexer
module SP = Spec_frontend.Parser

let max_depth = 256

(* ---- outcomes in one comparable form -------------------------------- *)

let describe = function
  | L.Lex_error (m, l) | SL.Lex_error (m, l) -> Printf.sprintf "%d: lex error: %s" l m
  | Parser.Parse_error (m, l) | SP.Parse_error (m, l) ->
    Printf.sprintf "%d: parse error: %s" l m
  | e -> "exception " ^ Printexc.to_string e

let of_spec : SL.token -> L.token = function
  | SL.INT n -> L.INT n
  | SL.FLOAT f -> L.FLOAT f
  | SL.IDENT s -> L.IDENT s
  | SL.KW s -> L.KW s
  | SL.PUNCT s -> L.PUNCT s
  | SL.EOF -> L.EOF

(* every (lookahead, line) a parser can observe, then how the walk
   ended *)
let walk ~create ~peek ~next ~line src =
  let rec go lx acc =
    let tok = peek lx in
    let acc = (tok, line lx) :: acc in
    if tok = L.EOF then (List.rev acc, "eof")
    else
      match next lx with
      | _ -> go lx acc
      | exception e -> (List.rev acc, describe e)
  in
  match create src with lx -> go lx [] | exception e -> ([], describe e)

let walk_new = walk ~create:L.create ~peek:L.peek ~next:L.next ~line:L.line

let walk_spec =
  walk ~create:SL.create
    ~peek:(fun lx -> of_spec (SL.peek lx))
    ~next:SL.next ~line:SL.line

let parsed parse src =
  match parse src with
  | p -> "ok\n" ^ Ir_pp.program_to_string p
  | exception e -> describe e

(* An upper bound on the parser's recursion depth, read off the tokens:
   one for the statement's expression, one per open bracket, plus every
   prefix-capable operator seen at an open bracket level since the last
   [;], [,] or [=] there (an operand never spans those). The parser may
   report the nesting limit only where this bound exceeds it. *)
let nesting_bound toks =
  let rec go levels best = function
    | [] -> best
    | tok :: rest ->
      let levels =
        match (tok, levels) with
        | L.PUNCT ("(" | "[" | "{"), _ -> 0 :: levels
        | L.PUNCT (")" | "]" | "}"), _ :: (_ :: _ as outer) -> outer
        | L.PUNCT (";" | "," | "="), _ :: outer -> 0 :: outer
        | (L.PUNCT ("-" | "!" | "~" | "*" | "&") | L.KW "cast"), u :: outer ->
          (u + 1) :: outer
        | _ -> levels
      in
      let bound = List.length levels + List.fold_left ( + ) 0 levels in
      go levels (max best bound) rest
  in
  go [ 0 ] 0 (List.map fst toks)

let nesting_error = Printf.sprintf "parse error: nesting deeper than %d" max_depth

(* the spec wraps an array dimension past [max_int] to a smaller size;
   the parser rejects it, on inputs that hold such a literal *)
let dimension_error = Str.regexp {|.*parse error: array dimension [0-9]+ out of range$|}

let has_wide_literal toks =
  List.exists
    (function
      | L.INT n, _ -> Int64.compare n 0L < 0 || Int64.compare n (Int64.of_int max_int) > 0
      | _ -> false)
    toks

(* a parse error's line and text after it: "LINE: parse error: ..." *)
let split_error s =
  match String.index_opt s ':' with
  | Some i ->
    let rest = String.sub s i (String.length s - i) in
    if String.starts_with ~prefix:": parse error: " rest then
      Option.map (fun l -> (l, rest)) (int_of_string_opt (String.sub s 0 i))
    else None
  | None -> None

(* the same parse error at the line of the token before the spec's *)
let one_token_earlier toks np sp =
  match (split_error np, split_error sp) with
  | Some (nl, nm), Some (sl, sm) when String.equal nm sm ->
    let rec adjacent = function
      | (_, a) :: ((_, b) :: _ as rest) -> (a = nl && b = sl) || adjacent rest
      | _ -> false
    in
    adjacent toks
  | _ -> false

(* the one form the parser accepts and the spec does not: array extents
   before a '*' in type position ([let p: i64[4]* = ...]). The spec
   fails at a '[' directly after a type (a type keyword, a struct name
   or a '*'), or, in a [var] declaration, which took the extents as its
   suffix, at the '*' after their ']'. The parser must then accept the
   input, or fail no earlier than the spec *)
let type_position_array toks np sp =
  let rec structs = function
    | (L.KW "struct", _) :: (L.IDENT s, _) :: (L.PUNCT "{", _) :: rest -> s :: structs rest
    | _ :: rest -> structs rest
    | [] -> []
  in
  let structs = structs toks in
  let ends_type prev = function
    | L.KW ("i8" | "i16" | "i32" | "i64" | "f64" | "void") | L.PUNCT "*" -> true
    | L.IDENT s -> prev = L.KW "struct" || List.mem s structs
    | _ -> false
  in
  (* a token pair on [line], with the token before it *)
  let at_line line pair =
    let rec go prev = function
      | (a, _) :: ((b, l) :: _ as rest) -> (l = line && pair prev a b) || go a rest
      | _ -> false
    in
    go L.EOF toks
  in
  let no_earlier line =
    String.starts_with ~prefix:"ok\n" np
    || match split_error np with Some (nl, _) -> nl >= line | None -> false
  in
  match split_error sp with
  | Some (line, m) when String.ends_with ~suffix:"got '['" m ->
    no_earlier line && at_line line (fun prev a b -> b = L.PUNCT "[" && ends_type prev a)
  | Some (line, m) when String.ends_with ~suffix:"got '*'" m ->
    no_earlier line
    && at_line line (fun _ a _ -> a = L.KW "var")
    && at_line line (fun _ a b -> a = L.PUNCT "]" && b = L.PUNCT "*")
  | _ -> false

let located m =
  Str.string_match
    (Str.regexp {|in\.minic\(:[1-9][0-9]*: \(parse\|lex\)\|: type\) error: |})
    m 0

(* the judgment on one input: [Ok ()] or what went wrong. [parse] is
   the parser under test *)
let judge ?(parse = Parser.parse) src =
  let ntoks, nstop = walk_new src and stoks, sstop = walk_spec src in
  if ntoks <> stoks || not (String.equal nstop sstop) then
    Error
      (Printf.sprintf "token streams differ: %d tokens, %s / spec %d tokens, %s"
         (List.length ntoks) nstop (List.length stoks) sstop)
  else
    let np = parsed parse src and sp = parsed SP.parse src in
    if (not (String.equal np sp))
       && not (String.ends_with ~suffix:nesting_error np && nesting_bound ntoks > max_depth)
       && not (Str.string_match dimension_error np 0 && has_wide_literal ntoks)
       && not (one_token_earlier ntoks np sp)
       && not (type_position_array ntoks np sp)
    then
      Error
        (Printf.sprintf "parse outcomes differ (nesting bound %d):\n--- new\n%s\n--- spec\n%s"
           (nesting_bound ntoks) np sp)
    else
      match Frontend.check ~file:"in.minic" src with
      | Ok _ -> Ok ()
      | Error m when located m -> Ok ()
      | Error m -> Error ("unlocated front-end error: " ^ m)
      | exception e -> Error ("Frontend.check raised " ^ Printexc.to_string e)

(* ---- inputs ---------------------------------------------------------- *)

(* fixed inputs: the by-value field of an undeclared struct that once
   crashed the front end with Not_found, the error-line cases, and an
   array size that overflows *)
let seeds =
  [
    ("undeclared-by-value", "struct a {\n  struct t x;\n};\ni64 main() { return sizeof(a); }");
    ( "undeclared-by-value-array",
      "struct a {\n  struct t x[2];\n};\ni64 main() { let p: a* = malloc(a, 1); return 0; }" );
    ("parse-before-lex", "struct 5 { };\n@");
    ("eof-line", "i64 main() {\n return 1\n}\n\n\n");
    ("open-comment", "i64 main() {\n  return 0;\n}\n/* open\n comment\n");
    ( "overflowing-array",
      "struct S { i64 a[4611686018427387903]; };\ni64 main() { return sizeof(S); }" );
    ( "wrapping-array",
      "struct S { i64 a[0x8000000000000004]; };\ni64 main() { return sizeof(S); }" );
    ( "type-position-array",
      "struct s { i64 a; };\n\
       i64 main() {\n\
      \  var x: i64[2][4];\n\
      \  let p: i64[2][4]* = &x;\n\
      \  let q: s[2]* = cast(s[2]*, 0);\n\
      \  let r: i64*[3]* = cast(i64*[3]*, 0);\n\
      \  return sizeof(i64[3]*);\n\
       }" );
    ("declared-pointer-to-array", "i64 main() {\n  var q: i64[4]*;\n  return 0;\n}");
  ]

let bases =
  lazy
    (let gen knobs name seed =
       (Printf.sprintf "gen %s seed %d" name seed, Ifp_fuzz.Gen.source ~knobs ~seed:(Int64.of_int seed) ())
     in
     let corpus =
       Sys.readdir "golden/fuzz" |> Array.to_list
       |> List.filter (fun f -> Filename.check_suffix f ".minic")
       |> List.sort compare
       |> List.map (fun f ->
              ( "corpus " ^ f,
                In_channel.with_open_text (Filename.concat "golden/fuzz" f)
                  In_channel.input_all ))
     in
     Array.of_list
       (seeds @ corpus
       @ List.init 24 (gen Ifp_fuzz.Gen.quick "quick")
       @ List.init 8 (fun i -> gen Ifp_fuzz.Gen.default "default" (100 + i))))

type mutation =
  | Flip of int * char  (** overwrite one byte *)
  | Truncate of int  (** keep a prefix *)
  | Splice of int * int * int * int
      (** insert a span (base, start, length) of another base at a point *)
  | Duplicate of int * int  (** repeat a span (start, length) in place *)
  | Deep_expr of int * int * int
      (** nest an operand [k] deep after the first "= " past a point *)
  | Deep_block of int * int  (** nest [k] blocks after the first "{" past a point *)

let deep_forms = [| ("(", ")"); ("-", ""); ("~(", ")"); ("!", ""); ("- (", ")") |]

let mutation_to_string = function
  | Flip (p, c) -> Printf.sprintf "flip@%d=%C" p c
  | Truncate p -> Printf.sprintf "truncate@%d" p
  | Splice (p, b, s, n) -> Printf.sprintf "splice@%d<-base%d[%d+%d]" p b s n
  | Duplicate (s, n) -> Printf.sprintf "duplicate[%d+%d]" s n
  | Deep_expr (p, k, f) -> Printf.sprintf "deep-expr@%d %d x %S" p k (fst deep_forms.(f))
  | Deep_block (p, k) -> Printf.sprintf "deep-block@%d x %d" p k

(* positions are drawn unbounded and reduced modulo the current length *)
let clamp src p = if String.length src = 0 then 0 else p mod (String.length src + 1)

let insert src p s =
  String.sub src 0 p ^ s ^ String.sub src p (String.length src - p)

let find_from src p needle =
  let n = String.length needle in
  let rec go i =
    if i + n > String.length src then None
    else if String.equal (String.sub src i n) needle then Some (i + n)
    else go (i + 1)
  in
  go p

let repeat k s = String.concat "" (List.init k (fun _ -> s))

let apply src = function
  | Flip (p, c) ->
    if String.length src = 0 then String.make 1 c
    else
      let b = Bytes.of_string src in
      Bytes.set b (p mod String.length src) c;
      Bytes.to_string b
  | Truncate p -> String.sub src 0 (clamp src p)
  | Splice (p, b, s, n) ->
    let bases = Lazy.force bases in
    let from = snd bases.(b mod Array.length bases) in
    let s = clamp from s in
    insert src (clamp src p) (String.sub from s (min n (String.length from - s)))
  | Duplicate (s, n) ->
    let s = clamp src s in
    let n = min n (String.length src - s) in
    insert src (s + n) (String.sub src s n)
  | Deep_expr (p, k, f) ->
    let o, c = deep_forms.(f) in
    let at = Option.value (find_from src (clamp src p) "= ") ~default:(clamp src p) in
    insert src at (repeat k o ^ "1" ^ repeat k c ^ " + ")
  | Deep_block (p, k) ->
    let at = Option.value (find_from src (clamp src p) "{") ~default:(clamp src p) in
    insert src at (repeat k "if (1) {" ^ repeat k "}")

type case = { base : int; muts : mutation list }

let source c = List.fold_left apply (snd (Lazy.force bases).(c.base)) c.muts

let alphabet = "(){}[];,.:-><=!&|*/%^~@$#\"'\n\t 0x9aZ_e"

let gen_mutation =
  let open QCheck.Gen in
  let pos = int_bound 100_000 in
  let byte =
    oneof
      [ map Char.chr (int_bound 255);
        oneofl (List.init (String.length alphabet) (String.get alphabet));
      ]
  in
  frequency
    [
      (30, map2 (fun p c -> Flip (p, c)) pos byte);
      (15, map (fun p -> Truncate p) pos);
      ( 20,
        map3
          (fun p b (s, n) -> Splice (p, b, s, n))
          pos (int_bound 1000) (pair pos (int_range 1 200)) );
      (20, map2 (fun s n -> Duplicate (s, n)) pos (int_range 1 200));
      ( 10,
        map3
          (fun p k f -> Deep_expr (p, k, f))
          pos (int_range 1 400) (int_bound (Array.length deep_forms - 1)) );
      (5, map2 (fun p k -> Deep_block (p, k)) pos (int_range 1 400));
    ]

let arb_case =
  let print c =
    let name = fst (Lazy.force bases).(c.base) in
    let src = source c in
    Printf.sprintf "%s + [%s]\n%s" name
      (String.concat "; " (List.map mutation_to_string c.muts))
      (if String.length src > 2000 then String.sub src 0 2000 ^ "..." else src)
  in
  let gen =
    let open QCheck.Gen in
    map2
      (fun base muts -> { base = base mod Array.length (Lazy.force bases); muts })
      (int_bound 10_000)
      (list_size (int_range 0 3) gen_mutation)
  in
  QCheck.make ~print
    ~shrink:(fun c yield -> QCheck.Shrink.list c.muts (fun muts -> yield { c with muts }))
    gen

let prop_spec_agrees =
  QCheck.Test.make ~count:400 ~name:"mutated sources agree with the frozen spec" arb_case
    (fun c ->
      match judge (source c) with
      | Ok () -> true
      | Error why -> QCheck.Test.fail_report why)

(* the allowance is no wider than its form: where the spec fails at a
   '[' that follows no type, or the parser fails earlier, the judge
   still reports a difference *)
let test_judge_reports () =
  let fails line m _ = raise (Parser.Parse_error (m, line)) in
  List.iter
    (fun (name, src, parse) ->
      match judge ~parse src with
      | Ok () -> Alcotest.fail (name ^ ": accepted")
      | Error _ -> ())
    [
      ( "index",
        "i64 main() {\n  var a: i64[4];\n  a[0] = 1; let [ b = 2;\n  return 0;\n}",
        fails 3 "other" );
      ( "earlier error",
        "i64 main() {\n  return 0;\n  let p: i64[2]* = 0;\n}",
        fails 1 "other" );
    ]

(* every base input, unmutated: the fixed seeds must stay covered *)
let test_bases () =
  Array.iter
    (fun (name, src) ->
      match judge src with Ok () -> () | Error why -> Alcotest.fail (name ^ ": " ^ why))
    (Lazy.force bases)

let tests =
  [
    Alcotest.test_case "unmutated inputs agree" `Quick test_bases;
    Alcotest.test_case "judge reports other disagreements" `Quick test_judge_reports;
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5eed |]) prop_spec_agrees;
  ]
