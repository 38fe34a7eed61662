open Ifp_compiler
module Ctype = Ifp_types.Ctype

(* ---- edits ----------------------------------------------------------- *)

(* the program with the body of its [k]-th function rebuilt by [block];
   the other functions are shared *)
let with_body (p : Ir.program) k block =
  {
    p with
    Ir.funcs =
      List.mapi
        (fun j (f : Ir.func) -> if j = k then { f with Ir.body = block f.Ir.body } else f)
        p.Ir.funcs;
  }

(* a body with its [n]-th statement (pre-order) replaced by [ss] *)
let replace_stmt n ss body =
  let cnt = ref (-1) in
  let rec block b = List.concat_map one b
  and one s =
    incr cnt;
    if !cnt = n then ss else [ Ir.map_stmt Fun.id block s ]
  in
  block body

(* a body with its [n]-th expression node (pre-order) replaced by [r] *)
let replace_expr n r body =
  let cnt = ref (-1) in
  let rec expr e =
    incr cnt;
    if !cnt = n then r else Ir.map_children expr e
  in
  let rec block b = List.map (Ir.map_stmt expr block) b in
  block body

let drop_func p name =
  {
    p with
    Ir.funcs = List.filter (fun f -> not (String.equal f.Ir.fname name)) p.Ir.funcs;
  }

let drop_global p name =
  {
    p with
    Ir.globals =
      List.filter (fun g -> not (String.equal g.Ir.gname name)) p.Ir.globals;
  }

let drop_struct p name =
  let tenv =
    List.fold_left
      (fun env (n, def) ->
        if String.equal n name then env else Ctype.declare env def)
      Ctype.empty_tenv
      (Ctype.bindings p.Ir.tenv)
  in
  { p with Ir.tenv }

(* ---- what may replace a node: each strictly decreases the measure ---- *)

(* a statement: nothing, or the non-empty blocks it holds *)
let stmt_edits (s : Ir.stmt) =
  []
  :: List.filter
       (fun b -> b <> [])
       (match s with Ir.If (_, t, e) -> [ t; e ] | Ir.While (_, b) -> [ b ] | _ -> [])

(* |j| < |k|, compared unsigned so that [Int64.min_int] halves too *)
let smaller j k = Int64.unsigned_compare (Int64.abs j) (Int64.abs k) < 0

let rec dedup = function
  | [] -> []
  | e :: rest -> e :: dedup (List.filter (fun r -> not (Ir.equal_expr e r)) rest)

(* a literal: a smaller one ([0] has none); any other expression: [0],
   [1] or one of its children *)
let expr_edits (e : Ir.expr) =
  dedup
    (match e with
    | Ir.Int k ->
      List.filter_map
        (fun j -> if smaller j k then Some (Ir.Int j) else None)
        [ 0L; 1L; Int64.div k 2L ]
    | _ -> Ir.Int 0L :: Ir.Int 1L :: Ir.children e)

(* ---- sites and the pass ---------------------------------------------- *)

(* A pass visits the edit sites in segments, coarsest first: the
   non-[main] functions, globals and structs; the statements of each
   body; the expression nodes of each body, each in pre-order. A segment
   gives, for the current program, its number of sites and the lazy
   candidates of each, every candidate with the segment of the program
   it makes. *)
type segment = { n : int; cands : int -> (Ir.program * (unit -> segment)) Seq.t }

let rec tops (p : Ir.program) =
  let drops =
    Array.of_list
      (List.filter_map
         (fun (f : Ir.func) ->
           if String.equal f.Ir.fname "main" then None
           else Some (fun () -> drop_func p f.Ir.fname))
         p.Ir.funcs
      @ List.map (fun (g : Ir.global) () -> drop_global p g.Ir.gname) p.Ir.globals
      @ List.map (fun (n, _) () -> drop_struct p n) (Ctype.bindings p.Ir.tenv))
  in
  {
    n = Array.length drops;
    cands =
      (fun i () ->
        let q = drops.(i) () in
        Seq.Cons ((q, fun () -> tops q), Seq.empty));
  }

(* The sites of the [k]-th body: [nodes] is its nodes in pre-order, and
   [sub r] the nodes of a replacement [r] in pre-order. A candidate
   rebuilds only that body. An edit at [i] changes only the subtree
   there, which is contiguous in pre-order, so the new body's sites are
   the old ones with that subtree's spliced out and [sub r] in: the
   sites before [i] are never visited again, and those after the subtree
   are unchanged. *)
let rec body_sites edits replace sub as_r k (p : Ir.program) nodes =
  {
    n = Array.length nodes;
    cands =
      (fun i ->
        Seq.map
          (fun r ->
            let q = with_body p k (replace i r) in
            let splice () =
              let old = List.length (sub (as_r nodes.(i))) in
              let fresh = Array.of_list (sub r) in
              body_sites edits replace sub as_r k q
                (Array.concat
                   [
                     Array.sub nodes 0 i;
                     fresh;
                     Array.sub nodes (i + old) (Array.length nodes - i - old);
                   ])
            in
            (q, splice))
          (List.to_seq (edits nodes.(i))));
  }

let pre_order fold x = List.rev (fold (fun acc y -> y :: acc) [] x)

let stmt_nodes ss = pre_order Ir.fold_stmts ss

let rec expr_nodes e = e :: List.concat_map expr_nodes (Ir.children e)

let body k (p : Ir.program) = (List.nth p.Ir.funcs k).Ir.body

let stmt_sites k p =
  body_sites stmt_edits replace_stmt stmt_nodes (fun s -> [ s ]) k p
    (Array.of_list (stmt_nodes (body k p)))

let expr_sites k p =
  body_sites expr_edits replace_expr expr_nodes Fun.id k p
    (Array.of_list (pre_order Ir.fold_exprs (body k p)))

(* try a segment's sites from position [i] on; an accepted edit resumes
   at the same position of the new program's segment *)
let rec scan ~keep seg p i accepted =
  if i = seg.n then (p, accepted)
  else
    match Seq.find (fun (q, _) -> keep q) (seg.cands i) with
    | Some (q, next) -> scan ~keep (next ()) q i true
    | None -> scan ~keep seg p (i + 1) accepted

let minimize ~keep p =
  let scan_all segments p accepted =
    List.fold_left
      (fun (p, accepted) segment -> scan ~keep (segment p) p 0 accepted)
      (p, accepted) segments
  in
  (* a pass that accepted an edit is followed by another *)
  let rec pass p =
    let p, accepted = scan_all [ tops ] p false in
    let ks = List.init (List.length p.Ir.funcs) Fun.id in
    let p, accepted =
      scan_all (List.map stmt_sites ks @ List.map expr_sites ks) p accepted
    in
    if accepted then pass p else p
  in
  pass p
