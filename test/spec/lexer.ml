type token =
  | INT of int64
  | FLOAT of float
  | IDENT of string
  | KW of string
  | PUNCT of string
  | EOF

exception Lex_error of string * int

let keywords =
  [ "struct"; "global"; "legacy"; "let"; "var"; "if"; "else"; "while";
    "return"; "break"; "continue"; "free"; "malloc"; "malloc_bytes"; "null";
    "sizeof"; "i8"; "i16"; "i32"; "i64"; "f64"; "void"; "cast" ]

(* multi-character operators first (longest match) *)
let puncts =
  [ "<<"; ">>"; "<="; ">="; "=="; "!="; "&&"; "||"; "->"; "+"; "-"; "*"; "/";
    "%"; "&"; "|"; "^"; "!"; "~"; "<"; ">"; "="; "("; ")"; "{"; "}"; "[";
    "]"; ";"; ","; "."; ":" ]

type t = {
  src : string;
  mutable pos : int;
  mutable line_no : int;
  mutable tok : token;
  mutable tok2 : token option;
}

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident c = is_ident_start c || (c >= '0' && c <= '9')
let is_digit c = c >= '0' && c <= '9'

let rec skip_ws t =
  if t.pos >= String.length t.src then ()
  else
    match t.src.[t.pos] with
    | ' ' | '\t' | '\r' ->
      t.pos <- t.pos + 1;
      skip_ws t
    | '\n' ->
      t.pos <- t.pos + 1;
      t.line_no <- t.line_no + 1;
      skip_ws t
    | '/' when t.pos + 1 < String.length t.src && t.src.[t.pos + 1] = '/' ->
      while t.pos < String.length t.src && t.src.[t.pos] <> '\n' do
        t.pos <- t.pos + 1
      done;
      skip_ws t
    | '/' when t.pos + 1 < String.length t.src && t.src.[t.pos + 1] = '*' ->
      let rec go p =
        if p + 1 >= String.length t.src then
          raise (Lex_error ("unterminated comment", t.line_no))
        else if t.src.[p] = '*' && t.src.[p + 1] = '/' then t.pos <- p + 2
        else begin
          if t.src.[p] = '\n' then t.line_no <- t.line_no + 1;
          go (p + 1)
        end
      in
      go (t.pos + 2);
      skip_ws t
    | _ -> ()

(* [Int64.of_string] fails on literals past 64 bits; that is a located
   lex error, not a crash *)
let int_lit t s =
  match Int64.of_string_opt s with
  | Some n -> INT n
  | None -> raise (Lex_error ("integer literal out of range", t.line_no))

let scan t =
  skip_ws t;
  if t.pos >= String.length t.src then EOF
  else
    let c = t.src.[t.pos] in
    if is_digit c then begin
      let start = t.pos in
      while t.pos < String.length t.src && is_digit t.src.[t.pos] do
        t.pos <- t.pos + 1
      done;
      (* hex *)
      if
        t.pos < String.length t.src
        && (t.src.[t.pos] = 'x' || t.src.[t.pos] = 'X')
        && t.pos = start + 1
        && t.src.[start] = '0'
      then begin
        t.pos <- t.pos + 1;
        let hstart = t.pos in
        while
          t.pos < String.length t.src
          && (is_digit t.src.[t.pos]
             || (Char.lowercase_ascii t.src.[t.pos] >= 'a'
                && Char.lowercase_ascii t.src.[t.pos] <= 'f'))
        do
          t.pos <- t.pos + 1
        done;
        if t.pos = hstart then raise (Lex_error ("bad hex literal", t.line_no));
        int_lit t ("0x" ^ String.sub t.src hstart (t.pos - hstart))
      end
      else if t.pos < String.length t.src && t.src.[t.pos] = '.' then begin
        t.pos <- t.pos + 1;
        while t.pos < String.length t.src && is_digit t.src.[t.pos] do
          t.pos <- t.pos + 1
        done;
        FLOAT (float_of_string (String.sub t.src start (t.pos - start)))
      end
      else int_lit t (String.sub t.src start (t.pos - start))
    end
    else if is_ident_start c then begin
      let start = t.pos in
      while t.pos < String.length t.src && is_ident t.src.[t.pos] do
        t.pos <- t.pos + 1
      done;
      let s = String.sub t.src start (t.pos - start) in
      if List.mem s keywords then KW s else IDENT s
    end
    else
      let rec try_puncts = function
        | [] ->
          raise (Lex_error (Printf.sprintf "unexpected character %c" c, t.line_no))
        | p :: rest ->
          let n = String.length p in
          if
            t.pos + n <= String.length t.src
            && String.equal (String.sub t.src t.pos n) p
          then begin
            t.pos <- t.pos + n;
            PUNCT p
          end
          else try_puncts rest
      in
      try_puncts puncts

let create src =
  let t = { src; pos = 0; line_no = 1; tok = EOF; tok2 = None } in
  t.tok <- scan t;
  t

let peek t = t.tok

let peek2 t =
  match t.tok2 with
  | Some tok -> tok
  | None ->
    let tok = scan t in
    t.tok2 <- Some tok;
    tok

let next t =
  let cur = t.tok in
  (match t.tok2 with
  | Some tok ->
    t.tok <- tok;
    t.tok2 <- None
  | None -> t.tok <- scan t);
  cur

let line t = t.line_no

let token_to_string = function
  | INT x -> Int64.to_string x
  | FLOAT f -> string_of_float f
  | IDENT s -> s
  | KW s -> s
  | PUNCT s -> Printf.sprintf "'%s'" s
  | EOF -> "<eof>"
