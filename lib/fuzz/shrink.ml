open Ifp_compiler
module Ctype = Ifp_types.Ctype

(* ---- positions: pre-order over every function body ------------------ *)

let fold_funcs fold (p : Ir.program) f init =
  List.fold_left (fun acc fn -> fold f acc fn.Ir.body) init p.Ir.funcs

let map_bodies (p : Ir.program) block =
  {
    p with
    Ir.funcs = List.map (fun fn -> { fn with Ir.body = block fn.Ir.body }) p.Ir.funcs;
  }

(* the [n]-th item of a pre-order fold *)
let nth fold p n =
  fold_funcs fold p
    (fun (i, found) x -> (i + 1, if i = n then Some x else found))
    (0, None)
  |> snd

let count fold p = fold_funcs fold p (fun n _ -> n + 1) 0

(* rebuild the program with the [n]-th statement replaced by [f s]
   (deletion = [], unwrap = the branch's statements) *)
let edit_stmt_at (p : Ir.program) n (f : Ir.stmt -> Ir.stmt list) =
  let cnt = ref (-1) in
  let rec block ss = List.concat_map one ss
  and one s =
    incr cnt;
    if !cnt = n then f s else [ Ir.map_stmt Fun.id block s ]
  in
  map_bodies p block

(* rebuild the program with the [n]-th expression node replaced *)
let edit_expr_at (p : Ir.program) n (repl : Ir.expr) =
  let cnt = ref (-1) in
  let rec expr e =
    incr cnt;
    if !cnt = n then repl else Ir.map_children expr e
  in
  let rec block ss = List.map (Ir.map_stmt expr block) ss in
  map_bodies p block

(* ---- top-level drops ------------------------------------------------- *)

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

(* ---- the candidate lattice ------------------------------------------- *)

(* lazily enumerated one-edit candidates, coarsest edits first *)
let candidates (p : Ir.program) : Ir.program Seq.t =
  let funcs =
    List.filter_map
      (fun f -> if f.Ir.fname = "main" then None else Some f.Ir.fname)
      p.Ir.funcs
  in
  let drops =
    List.to_seq
      (List.map (fun n () -> drop_func p n) funcs
      @ List.map (fun (g : Ir.global) () -> drop_global p g.Ir.gname) p.Ir.globals
      @ List.map
          (fun (n, _) () -> drop_struct p n)
          (Ctype.bindings p.Ir.tenv))
  in
  let n_stmts = count Ir.fold_stmts p in
  let deletes =
    Seq.init n_stmts (fun i () -> edit_stmt_at p i (fun _ -> []))
  in
  let unwraps =
    Seq.concat_map
      (fun i ->
        match nth Ir.fold_stmts p i with
        | Some (Ir.If (_, t, e)) ->
          List.to_seq
            [
              (fun () -> edit_stmt_at p i (fun _ -> t));
              (fun () -> edit_stmt_at p i (fun _ -> e));
            ]
        | Some (Ir.While (_, b)) ->
          List.to_seq [ (fun () -> edit_stmt_at p i (fun _ -> b)) ]
        | _ -> Seq.empty)
      (Seq.init n_stmts Fun.id)
  in
  let n_exprs = count Ir.fold_exprs p in
  let expr_edits =
    Seq.concat_map
      (fun i ->
        match nth Ir.fold_exprs p i with
        | None -> Seq.empty
        | Some e ->
          let repls =
            (match e with
            | Ir.Int 0L | Ir.Int 1L -> []
            | Ir.Int k when Int64.abs k > 1L -> [ Ir.Int (Int64.div k 2L) ]
            | _ -> [])
            @ [ Ir.Int 0L; Ir.Int 1L ]
            @ Ir.children e
          in
          let repls =
            List.filter (fun r -> not (Ir.equal_expr r e)) repls
          in
          List.to_seq (List.map (fun r () -> edit_expr_at p i r) repls))
      (Seq.init n_exprs Fun.id)
  in
  Seq.concat (List.to_seq [ drops; deletes; unwraps; expr_edits ])
  |> Seq.map (fun f -> f ())

let minimize ?(budget = 1200) ~keep p0 =
  if not (keep p0) then p0
  else begin
    let spent = ref 1 in
    let cur = ref p0 in
    let progress = ref true in
    while !progress && !spent < budget do
      progress := false;
      let seq = ref (candidates !cur) in
      let stop = ref false in
      while not !stop do
        match Seq.uncons !seq with
        | None -> stop := true
        | Some (cand, rest) ->
          if !spent >= budget then stop := true
          else begin
            incr spent;
            if keep cand then begin
              cur := cand;
              progress := true;
              stop := true
            end
            else seq := rest
          end
      done
    done;
    !cur
  end
