type json =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of json list
  | Obj of (string * json) list

let escape_string s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

let float_to_string f =
  if Float.is_finite f then
    (* shortest representation that still round-trips readably *)
    let s = Printf.sprintf "%.6g" f in
    if String.contains s '.' || String.contains s 'e' || String.contains s 'n'
    then s
    else s ^ ".0"
  else "null"

let rec render buf indent level j =
  let pad n = if indent then Buffer.add_string buf (String.make (2 * n) ' ') in
  let nl () = if indent then Buffer.add_char buf '\n' in
  match j with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Buffer.add_string buf (float_to_string f)
  | String s -> Buffer.add_string buf (escape_string s)
  | List [] -> Buffer.add_string buf "[]"
  | List items ->
    Buffer.add_char buf '[';
    nl ();
    List.iteri
      (fun i item ->
        if i > 0 then (
          Buffer.add_char buf ',';
          nl ());
        pad (level + 1);
        render buf indent (level + 1) item)
      items;
    nl ();
    pad level;
    Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj fields ->
    Buffer.add_char buf '{';
    nl ();
    List.iteri
      (fun i (k, v) ->
        if i > 0 then (
          Buffer.add_char buf ',';
          nl ());
        pad (level + 1);
        Buffer.add_string buf (escape_string k);
        Buffer.add_string buf (if indent then ": " else ":");
        render buf indent (level + 1) v)
      fields;
    nl ();
    pad level;
    Buffer.add_char buf '}'

let json_to_string j =
  let buf = Buffer.create 256 in
  render buf false 0 j;
  Buffer.contents buf

let write_json_file ~path j =
  let buf = Buffer.create 1024 in
  render buf true 0 j;
  Buffer.add_char buf '\n';
  let oc = open_out path in
  Buffer.output_buffer oc buf;
  close_out oc

type t = {
  oc : out_channel option;
  mutex : Mutex.t;
  t0 : float;
}

let create ~path =
  { oc = Some (open_out path); mutex = Mutex.create (); t0 = Unix.gettimeofday () }

(* ---- crash-tolerant reading ----

   The writer appends [line ^ "\n"] and flushes, so the only damage a
   crash can do is a final line with no terminating newline. Complete
   lines are well-formed by construction; the object-shape filter below
   is belt-and-braces against foreign editors. *)

let looks_like_event l =
  String.length l >= 2 && l.[0] = '{' && l.[String.length l - 1] = '}'

let read_lines ~path =
  match open_in_bin path with
  | exception Sys_error _ -> ([], false)
  | ic ->
    let len = in_channel_length ic in
    let s = really_input_string ic len in
    close_in_noerr ic;
    let truncated = len > 0 && s.[len - 1] <> '\n' in
    (* the final split part is "" when the file is newline-terminated and
       the torn partial line otherwise — dropped either way *)
    let rec complete = function
      | [] | [ _ ] -> []
      | x :: rest -> x :: complete rest
    in
    ( List.filter looks_like_event (complete (String.split_on_char '\n' s)),
      truncated )

let iter_lines ~path f =
  let lines, truncated = read_lines ~path in
  List.iter f lines;
  truncated

let null = { oc = None; mutex = Mutex.create (); t0 = 0.0 }

let emit t event fields =
  match t.oc with
  | None -> ()
  | Some oc ->
    let ts = Unix.gettimeofday () -. t.t0 in
    let line =
      json_to_string
        (Obj (("ts", Float ts) :: ("event", String event) :: fields))
    in
    Mutex.lock t.mutex;
    output_string oc line;
    output_char oc '\n';
    flush oc;
    Mutex.unlock t.mutex

let close t =
  match t.oc with
  | None -> ()
  | Some oc ->
    Mutex.lock t.mutex;
    (try flush oc with Sys_error _ -> ());
    (try close_out oc with Sys_error _ -> ());
    Mutex.unlock t.mutex
