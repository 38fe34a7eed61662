(** Hand-written lexer for the MiniC surface syntax (see {!Parser}). *)

type token =
  | INT of int64
  | FLOAT of float
  | IDENT of string
  | KW of string  (** keyword: struct, global, legacy, let, var, if, … *)
  | PUNCT of string  (** operator or punctuation, longest-match *)
  | EOF

type t

val create : string -> t
val peek : t -> token
val peek2 : t -> token
val next : t -> token
val line : t -> int

exception Lex_error of string * int  (** message, line *)

val token_to_string : token -> string
