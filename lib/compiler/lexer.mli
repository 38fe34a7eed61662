(** Hand-written lexer for the MiniC surface syntax (see {!Parser}).

    {!create} lexes the whole source once into a token array; a cursor
    then walks it, and {!rewind} lets the parser's passes walk the same
    tokens again. A lex error ends the array and is raised only when the
    cursor reaches it, so an earlier parse error still wins, exactly as
    when tokens are scanned on demand. *)

type token =
  | INT of int64
  | FLOAT of float
  | IDENT of string
  | KW of string  (** keyword: struct, global, legacy, let, var, if, … *)
  | PUNCT of string  (** operator or punctuation, longest-match *)
  | EOF

type t

exception Lex_error of string * int  (** message, line *)

val create : string -> t
(** Lexes the source. @raise Lex_error if its first token is malformed. *)

val peek : t -> token
(** The lookahead token; {!EOF} once the source is exhausted. *)

val next : t -> token
(** Returns the lookahead and advances past it.
    @raise Lex_error when the new lookahead is where lexing failed. *)

val line : t -> int
(** Line of the lookahead token; at {!EOF}, the line reached after all
    trailing whitespace and comments. *)

val taken_line : t -> int
(** Line of the token {!next} last returned: where an error about that
    token is reported. *)

val rewind : t -> unit
(** Moves the cursor back to the first token. *)

val token_to_string : token -> string
