let check ~file src =
  match Parser.parse src with
  | exception Parser.Parse_error (m, line) ->
    Error (Printf.sprintf "%s:%d: parse error: %s" file line m)
  | exception Lexer.Lex_error (m, line) ->
    Error (Printf.sprintf "%s:%d: lex error: %s" file line m)
  | prog -> (
    match Typecheck.check_program prog with
    | () -> Ok prog
    | exception Typecheck.Type_error m ->
      Error (Printf.sprintf "%s: type error: %s" file m))

let load file =
  match In_channel.with_open_text file In_channel.input_all with
  | exception Sys_error m -> Error m
  | src -> Result.map (fun prog -> (src, prog)) (check ~file src)
