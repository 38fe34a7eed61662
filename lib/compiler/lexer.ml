type token =
  | INT of int64
  | FLOAT of float
  | IDENT of string
  | KW of string
  | PUNCT of string
  | EOF

exception Lex_error of string * int

(* scanning state over the source text *)
type scanner = { src : string; mutable pos : int; mutable line_no : int }

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

(* longest match on the current and next character *)
let punct t c =
  let c2 = if t.pos + 1 < String.length t.src then t.src.[t.pos + 1] else ' ' in
  let tok, n =
    match (c, c2) with
    | '<', '<' -> (PUNCT "<<", 2)
    | '<', '=' -> (PUNCT "<=", 2)
    | '<', _ -> (PUNCT "<", 1)
    | '>', '>' -> (PUNCT ">>", 2)
    | '>', '=' -> (PUNCT ">=", 2)
    | '>', _ -> (PUNCT ">", 1)
    | '=', '=' -> (PUNCT "==", 2)
    | '=', _ -> (PUNCT "=", 1)
    | '!', '=' -> (PUNCT "!=", 2)
    | '!', _ -> (PUNCT "!", 1)
    | '&', '&' -> (PUNCT "&&", 2)
    | '&', _ -> (PUNCT "&", 1)
    | '|', '|' -> (PUNCT "||", 2)
    | '|', _ -> (PUNCT "|", 1)
    | '-', '>' -> (PUNCT "->", 2)
    | '-', _ -> (PUNCT "-", 1)
    | '+', _ -> (PUNCT "+", 1)
    | '*', _ -> (PUNCT "*", 1)
    | '/', _ -> (PUNCT "/", 1)
    | '%', _ -> (PUNCT "%", 1)
    | '^', _ -> (PUNCT "^", 1)
    | '~', _ -> (PUNCT "~", 1)
    | '(', _ -> (PUNCT "(", 1)
    | ')', _ -> (PUNCT ")", 1)
    | '{', _ -> (PUNCT "{", 1)
    | '}', _ -> (PUNCT "}", 1)
    | '[', _ -> (PUNCT "[", 1)
    | ']', _ -> (PUNCT "]", 1)
    | ';', _ -> (PUNCT ";", 1)
    | ',', _ -> (PUNCT ",", 1)
    | '.', _ -> (PUNCT ".", 1)
    | ':', _ -> (PUNCT ":", 1)
    | _ ->
      raise (Lex_error (Printf.sprintf "unexpected character %c" c, t.line_no))
  in
  t.pos <- t.pos + n;
  tok

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
      (* a static match: no table is built when the module loads *)
      match s with
      | "struct" | "global" | "legacy" | "let" | "var" | "if" | "else" | "while"
      | "return" | "break" | "continue" | "free" | "malloc" | "malloc_bytes"
      | "null" | "sizeof" | "i8" | "i16" | "i32" | "i64" | "f64" | "void"
      | "cast" ->
        KW s
      | _ -> IDENT s
    end
    else punct t c

(* The tokens are kept in chunks of [chunk] entries, each small enough
   for the minor heap. One array of a whole program's tokens would be
   allocated in the major heap; at this size that costs more than the
   scan itself. *)
let chunk_bits = 8
let chunk = 1 lsl chunk_bits

(* the token at [last] is [EOF], or, when lexing failed, a placeholder at
   which [error] is raised *)
type t = {
  toks : token array array;
  lines : int array array;
  last : int;
  error : exn option;
  mutable cur : int;
  mutable taken : int;  (** index of the token [next] last returned *)
}

let arrive t = if t.cur = t.last then Option.iter raise t.error

let create src =
  let sc = { src; pos = 0; line_no = 1 } in
  let toks = ref [] and lines = ref [] in
  let tchunk = ref [||] and lchunk = ref [||] in
  let n = ref 0 in
  let push tok =
    let i = !n land (chunk - 1) in
    if i = 0 then begin
      tchunk := Array.make chunk EOF;
      lchunk := Array.make chunk 0;
      toks := !tchunk :: !toks;
      lines := !lchunk :: !lines
    end;
    !tchunk.(i) <- tok;
    !lchunk.(i) <- sc.line_no;
    incr n
  in
  let rec fill () =
    match scan sc with
    | EOF ->
      push EOF;
      None
    | tok ->
      push tok;
      fill ()
    | exception (Lex_error _ as e) ->
      push EOF;
      Some e
  in
  let error = fill () in
  let t =
    { toks = Array.of_list (List.rev !toks); lines = Array.of_list (List.rev !lines);
      last = !n - 1; error; cur = 0; taken = 0 }
  in
  arrive t;
  t

let peek t = t.toks.(t.cur lsr chunk_bits).(t.cur land (chunk - 1))

let next t =
  let tok = peek t in
  t.taken <- t.cur;
  if t.cur < t.last then begin
    t.cur <- t.cur + 1;
    arrive t
  end;
  tok

let line_at t i = t.lines.(i lsr chunk_bits).(i land (chunk - 1))
let line t = line_at t t.cur
let taken_line t = line_at t t.taken
let rewind t = t.cur <- 0

let token_to_string = function
  | INT x -> Int64.to_string x
  | FLOAT f -> string_of_float f
  | IDENT s -> s
  | KW s -> s
  | PUNCT s -> Printf.sprintf "'%s'" s
  | EOF -> "<eof>"
