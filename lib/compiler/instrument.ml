module Ctype = Ifp_types.Ctype

type report = {
  locals_registered : int;
  locals_skipped : int;
  promotes_inserted : int;
  globals_registered : int;
  alloc_types_inferred : int;
}

type config = { infer_alloc_types : bool }

let default_config = { infer_alloc_types = false }

(* A Gep path is statically safe when every index is a compile-time
   constant within the array bounds it indexes (and leading pointer
   arithmetic is absent or zero): accesses through it can never leave the
   object, so the local needs no runtime metadata. *)
let const_in_bounds tenv pointee steps =
  let in_bounds ok (step : Typecheck.gep_step) =
    ok
    &&
    match step with
    | Field _ -> true
    | Elem { idx = Int k; len; _ } ->
      Int64.compare k 0L >= 0 && Int64.compare k (Int64.of_int len) < 0
    | Arith { idx = Int k; _ } -> Int64.equal k 0L
    | Elem _ | Arith _ -> false
  in
  match Typecheck.fold_gep tenv pointee steps in_bounds true with
  | Ok ok -> ok
  | Error _ -> false

(* Find the locals of [f] whose address use cannot be proven safe. *)
let escaping_locals tenv (f : Ir.func) =
  let escaped = Hashtbl.create 8 in
  let rec expr ~deref (e : Ir.expr) =
    match e with
    | Addr_local v -> if not deref then Hashtbl.replace escaped v ()
    | Unop (_, a) | Cast (_, a) | Ifp_promote a -> expr ~deref a
    | Load (_, addr) -> expr ~deref:true addr
    | Gep (pointee, base, steps) ->
      expr ~deref:(deref && const_in_bounds tenv pointee steps) base;
      List.iter
        (function Ir.S_index ie -> value () ie | Ir.S_field _ -> ())
        steps
    | _ -> Ir.fold_children value () e
  (* an expression whose value is used, not dereferenced *)
  and value () e = expr ~deref:false e in
  Ir.fold_stmts
    (fun () (s : Ir.stmt) ->
      match s with
      | Store (_, addr, v) ->
        expr ~deref:true addr;
        value () v
      | _ -> Ir.fold_stmt_exprs value () s)
    () f.body;
  escaped

let local_needs_registration tenv f v =
  Hashtbl.mem (escaping_locals tenv f) v

let instrument_func cfg tenv gtys (f : Ir.func) ~count_promote ~count_reg
    ~count_skip ~count_infer =
  let escaped = escaping_locals tenv f in
  (* classify every stack local *)
  let registered = Hashtbl.create 8 in
  Ir.fold_stmts
    (fun () (s : Ir.stmt) ->
      match s with
      | Decl_local (v, _) ->
        if Hashtbl.mem escaped v then begin
          Hashtbl.replace registered v ();
          count_reg ()
        end
        else count_skip ()
      | _ -> ())
    () f.body;
  let deregs () =
    Hashtbl.fold (fun v () acc -> Ir.Ifp_deregister_local v :: acc) registered []
  in
  (* return temporaries are numbered per function, so instrumenting a
     program twice, or from two domains at once, names them the same *)
  let n_tmps = ref 0 in
  let fresh () =
    incr n_tmps;
    Printf.sprintf "__ifp_ret%d" !n_tmps
  in
  let rec expr (e : Ir.expr) : Ir.expr =
    match e with
    | Cast (Ctype.Ptr ty, Malloc_bytes n)
      when cfg.infer_alloc_types
           && (match ty with Ctype.Struct _ | Ctype.Array _ -> true | _ -> false)
      ->
      (* allocation-wrapper inference (paper §5.2.1 future work): the
         wrapper's type-erased allocation is immediately cast to a typed
         pointer, so the element type — and its layout table — can be
         recovered *)
      count_infer ();
      Cast (Ctype.Ptr ty, Malloc_sized (ty, expr n))
    | _ -> promote_if_pointer (Ir.map_children expr e)
  and promote_if_pointer (e : Ir.expr) : Ir.expr =
    match e with
    | Load (Ctype.Ptr _, _) ->
      count_promote ();
      Ifp_promote e
    | Load_global g -> (
      (* a pointer-typed global read by name is still a pointer loaded
         from memory (Listing 2's gv_ptr): its bounds are unknown *)
      match Hashtbl.find_opt gtys g with
      | Some (Ctype.Ptr _) ->
        count_promote ();
        Ifp_promote e
      | _ -> e)
    | _ -> e
  in
  let rec stmt (s : Ir.stmt) : Ir.stmt list =
    match s with
    | Decl_local (v, _) when Hashtbl.mem registered v ->
      [ s; Ifp_register_local v ]
    | Return None when Hashtbl.length registered > 0 -> deregs () @ [ s ]
    | Return (Some e) when Hashtbl.length registered > 0 ->
      let e = expr e in
      if Ctype.is_scalar f.ret then
        let tmp = fresh () in
        (Ir.Let (tmp, f.ret, e) :: deregs ()) @ [ Return (Some (Var tmp)) ]
      else deregs () @ [ Return (Some e) ]
    | _ -> [ Ir.map_stmt expr stmts s ]
  and stmts ss = List.concat_map stmt ss in
  let body = stmts f.body in
  let body =
    (* fall-through function end also deregisters *)
    match List.rev body with
    | Ir.Return _ :: _ -> body
    | _ -> body @ deregs ()
  in
  { f with body }

let run ?(config = default_config) (prog : Ir.program) =
  let promotes = ref 0 and regs = ref 0 and skips = ref 0 and inferred = ref 0 in
  (* mark globals whose address is taken anywhere *)
  let addr_taken = Hashtbl.create 8 in
  List.iter
    (fun (f : Ir.func) ->
      if f.instrumented then
        Ir.fold_exprs
          (fun () (e : Ir.expr) ->
            match e with Addr_global g -> Hashtbl.replace addr_taken g () | _ -> ())
          () f.body)
    prog.funcs;
  (* fresh global records: never mutate the input program — it may be
     shared with concurrent runs and with content-digest computations *)
  let globals =
    List.map
      (fun (g : Ir.global) ->
        { g with Ir.registered = Hashtbl.mem addr_taken g.gname })
      prog.globals
  in
  let gtys = Hashtbl.create 8 in
  List.iter (fun (g : Ir.global) -> Hashtbl.replace gtys g.gname g.gty) prog.globals;
  let funcs =
    List.map
      (fun (f : Ir.func) ->
        if not f.instrumented then f
        else
          instrument_func config prog.tenv gtys f
            ~count_promote:(fun () -> incr promotes)
            ~count_reg:(fun () -> incr regs)
            ~count_skip:(fun () -> incr skips)
            ~count_infer:(fun () -> incr inferred))
      prog.funcs
  in
  let globals_registered =
    List.length (List.filter (fun (g : Ir.global) -> g.registered) globals)
  in
  ( { prog with funcs; globals },
    {
      locals_registered = !regs;
      locals_skipped = !skips;
      promotes_inserted = !promotes;
      globals_registered;
      alloc_types_inferred = !inferred;
    } )
