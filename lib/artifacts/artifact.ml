module Events = Ifp_campaign.Events

type fmt = (float -> string, unit, string) format
type count_fmt = Plain | Sci | Out_of of int | Share of int
type ratio_fmt = Times of fmt | Change

type cell =
  | Count of int * count_fmt
  | Ratio of float * ratio_fmt
  | Percent of float * fmt
  | Status of string
  | Text of string

type table = { columns : string list; rows : cell list list }
type line = { template : string; values : (string * cell) list }
type block = Table of table | Line of line | Blank
type claim = { name : string; holds : bool }
type t = { id : string; title : string; body : block list; claims : claim list }

let make ~id ~title body predicates =
  let a = { id; title; body; claims = [] } in
  let holds p = try p a with Not_found | Failure _ | Invalid_argument _ -> false in
  { a with claims = List.map (fun (name, p) -> { name; holds = holds p }) predicates }

let line template values = Line { template; values }
let text template = line template []

let sci n =
  if n < 100_000 then string_of_int n else Printf.sprintf "%.2e" (float_of_int n)

let cell_text = function
  | Count (n, Plain) -> string_of_int n
  | Count (n, Sci) -> sci n
  | Count (n, Out_of total) -> Printf.sprintf "%d/%d" n total
  | Count (0, Share _) -> "0"
  | Count (n, Share part) -> Printf.sprintf "%s (%d%%)" (sci n) (100 * part / n)
  | Ratio (r, Times f) -> Printf.sprintf f r
  | Ratio (r, Change) -> Ifp_util.Stats.percent r
  | Percent (p, f) -> Printf.sprintf f p
  | Status s | Text s -> s

let num = function
  | Count (n, (Plain | Out_of _)) -> float_of_int n
  | Status _ | Text _ -> Float.nan
  | c -> (
    (* the leading number of the printed cell: "5.86e+05", "441 (99%)",
       "1.49x"; a change prints in percent, "+36.4%" is 1.364 *)
    match (c, Scanf.sscanf_opt (cell_text c) " %f" Fun.id) with
    | Ratio (_, Change), Some p -> 1.0 +. (p /. 100.0)
    | _, Some v -> v
    | _, None -> Float.nan)

let tables a = List.filter_map (function Table t -> Some t | _ -> None) a.body
let lines a = List.filter_map (function Line l -> Some l | _ -> None) a.body

let index columns col =
  let rec go i = function
    | [] -> raise Not_found
    | c :: rest -> if c = col then i else go (i + 1) rest
  in
  go 0 columns

let lookup t r col = List.nth r (index t.columns col)

let rows a =
  let t = List.hd (tables a) in
  List.map (lookup t) t.rows

let row a key =
  let t = List.hd (tables a) in
  lookup t (List.find (fun r -> cell_text (List.hd r) = key) t.rows)

let value a name =
  match List.find_map (fun l -> List.assoc_opt name l.values) (lines a) with
  | Some c -> c
  | None -> raise Not_found

(* the template with each [{name}] replaced by that value's text *)
let line_text { template; values } =
  let b = Buffer.create (String.length template + 32) in
  let rec go i =
    match String.index_from_opt template i '{' with
    | None -> Buffer.add_substring b template i (String.length template - i)
    | Some j ->
      let k = String.index_from template j '}' in
      Buffer.add_substring b template i (j - i);
      Buffer.add_string b (cell_text (List.assoc (String.sub template (j + 1) (k - j - 1)) values));
      go (k + 1)
  in
  go 0;
  Buffer.contents b

let render a =
  let b = Buffer.create 4096 in
  Printf.bprintf b "== %s ==\n" a.title;
  List.iter
    (function
      | Table t ->
        Buffer.add_string b
          (Ifp_util.Table.render ~header:t.columns (List.map (List.map cell_text) t.rows))
      | Line l ->
        Buffer.add_string b (line_text l);
        Buffer.add_char b '\n'
      | Blank -> Buffer.add_char b '\n')
    a.body;
  Buffer.add_char b '\n';
  Buffer.contents b

let cell_json : cell -> Events.json = function
  | Count (n, (Plain | Sci)) -> Int n
  | Count (n, Out_of total) -> Obj [ ("n", Int n); ("of", Int total) ]
  | Count (n, Share part) -> Obj [ ("n", Int n); ("part", Int part) ]
  | Ratio (v, _) | Percent (v, _) -> Float v
  | Status s | Text s -> String s

let to_json a : Events.json =
  let objs f xs = Events.List (List.map (fun x -> Events.Obj (f x)) xs) in
  Obj
    [
      ("id", String a.id);
      ("title", String a.title);
      ( "tables",
        objs
          (fun t ->
            [ ("columns", List (List.map (fun c -> Events.String c) t.columns));
              ("rows", List (List.map (fun r -> Events.List (List.map cell_json r)) t.rows)) ])
          (tables a) );
      ( "lines",
        objs
          (fun l ->
            [ ("text", String (line_text l));
              ("values", Obj (List.map (fun (k, c) -> (k, cell_json c)) l.values)) ])
          (lines a) );
      ("claims", objs (fun c -> [ ("name", String c.name); ("holds", Bool c.holds) ]) a.claims);
    ]

let failed arts =
  List.concat_map
    (fun a -> List.filter_map (fun c -> if c.holds then None else Some (a, c)) a.claims)
    arts
