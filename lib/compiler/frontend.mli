(** The MiniC front end as one call: parse, then typecheck, with every
    failure turned into a located message instead of an exception. *)

val check : file:string -> string -> (Ir.program, string) result
(** Parses and typechecks MiniC source text. [Error] is
    ["FILE:LINE: parse error: ..."], ["FILE:LINE: lex error: ..."] or
    ["FILE: type error: ..."]; [file] names the source in the message. *)

val load : string -> (string * Ir.program, string) result
(** Reads the file, then {!check}s it; [Ok] carries the source text with
    the program. A file that cannot be read gives the system's message,
    which starts with the file name. *)
