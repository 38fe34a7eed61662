module Ctype = Ifp_types.Ctype
module Layout = Ifp_types.Layout

exception Type_error of string

let err fmt = Format.kasprintf (fun s -> raise (Type_error s)) fmt

let builtin_sig = function
  | "__print_i64" -> Some ([ Ctype.I64 ], Ctype.Void)
  | "__print_f64" -> Some ([ Ctype.F64 ], Ctype.Void)
  | "__abort" -> Some ([], Ctype.Void)
  | _ -> None

let is_int = function
  | Ctype.I8 | Ctype.I16 | Ctype.I32 | Ctype.I64 -> true
  | Ctype.(Void | F64 | Ptr _ | Struct _ | Array _) -> false

(* pointee types match structurally, with [void] as a wildcard at any
   level — integer-width laxity does NOT apply under a pointer *)
let rec pointee_compat a b =
  match (a, b) with
  | Ctype.Void, _ | _, Ctype.Void -> true
  | Ctype.Ptr x, Ctype.Ptr y -> pointee_compat x y
  | x, y -> Ctype.equal x y

let compat a b =
  match (a, b) with
  | x, y when is_int x && is_int y -> true
  | Ctype.F64, Ctype.F64 -> true
  | Ctype.Ptr x, Ctype.Ptr y -> pointee_compat x y
  | x, y -> Ctype.equal x y

type gep_step =
  | Field of { sname : string; field : string; fty : Ctype.t }
  | Elem of { idx : Ir.expr; elt : Ctype.t; len : int }
  | Arith of { idx : Ir.expr; ty : Ctype.t }

type gep_fault =
  | No_field of { sname : string; field : string }
  | Not_struct of { field : string; ty : Ctype.t }
  | Not_array of { idx : Ir.expr; ty : Ctype.t }

let fold_gep tenv pointee steps f init =
  let rec go ty ~leading acc = function
    | [] -> Ok acc
    | Ir.S_field field :: rest -> (
      match ty with
      | Ctype.Struct sname -> (
        match Ctype.field_type tenv sname field with
        | fty -> go fty ~leading:false (f acc (Field { sname; field; fty })) rest
        | exception Not_found -> Error (acc, No_field { sname; field }))
      | _ -> Error (acc, Not_struct { field; ty }))
    | Ir.S_index idx :: rest -> (
      match ty with
      | Ctype.Array (elt, len) ->
        go elt ~leading:false (f acc (Elem { idx; elt; len })) rest
      | _ when leading -> go ty ~leading:false (f acc (Arith { idx; ty })) rest
      | _ -> Error (acc, Not_array { idx; ty }))
  in
  go pointee ~leading:true init steps

let type_of_gep tenv pointee steps =
  let step_type _ = function
    | Field { fty; _ } -> fty
    | Elem { elt; _ } -> elt
    | Arith { ty; _ } -> ty
  in
  match fold_gep tenv pointee steps step_type pointee with
  | Ok ty -> ty
  | Error (_, No_field { sname; field }) ->
    err "Gep: struct %s has no field %s" sname field
  | Error (_, Not_struct { field; ty }) ->
    err "Gep: field %s selected on non-struct %s" field (Ctype.to_string tenv ty)
  | Error (_, Not_array { ty; _ }) ->
    err "Gep: index into non-array %s" (Ctype.to_string tenv ty)

let layout_path tenv pointee steps =
  let step path = function
    | Field { field; _ } -> Layout.Field field :: path
    | Elem _ -> Layout.Index :: path
    | Arith _ -> path
  in
  match fold_gep tenv pointee steps step [] with
  | Ok path -> List.rev path
  | Error (_, No_field _) -> raise Not_found
  | Error (_, Not_struct _) -> err "layout_path: non-struct"
  | Error (_, Not_array _) -> err "layout_path: non-array"

(* the heap arena: the largest region of the VM's memory map, so no
   object larger than this can be placed *)
let max_object_size = 1 lsl 28

exception Too_large

(* [Ctype.sizeof] with every step checked: raises [Too_large] instead of
   wrapping, or of going negative on a dimension past [max_int] *)
let checked_sizeof tenv ty =
  let rec layout seen = function
    | Ctype.Void -> (0, 1)
    | I8 -> (1, 1)
    | I16 -> (2, 2)
    | I32 -> (4, 4)
    | I64 | F64 | Ptr _ -> (8, 8)
    | Array (elt, n) ->
      let size, align = layout seen elt in
      if n < 0 || (size > 0 && n > max_object_size / size) then raise Too_large;
      (n * size, align)
    | Struct name ->
      if List.mem name seen then err "struct %s contains itself by value" name;
      let def =
        match Ctype.lookup tenv name with
        | def -> def
        | exception Not_found -> err "struct %s used by value is not declared" name
      in
      let off, align =
        List.fold_left
          (fun (off, align) f ->
            let size, a = layout (name :: seen) f.Ctype.fty in
            let off = Ifp_util.Bits.align_up off a + size in
            if off > max_object_size then raise Too_large;
            (off, max align a))
          (0, 1) def.fields
      in
      (Ifp_util.Bits.align_up off align, align)
  in
  let size, _ = layout [] ty in
  if size > max_object_size then raise Too_large;
  size

(* the checked size of a declared type; [what ()] names the declaration
   in the error *)
let object_size tenv ty what =
  match checked_sizeof tenv ty with
  | size -> size
  | exception Too_large ->
    err "%s: size of %s out of range (max %d bytes)" (what ())
      (Ctype.to_string tenv ty) max_object_size

let check_struct tenv (name, (def : Ctype.struct_def)) =
  List.iter
    (fun (f : Ctype.field) ->
      ignore
        (object_size tenv f.fty (fun () ->
             Printf.sprintf "struct %s field %s" name f.fname)))
    def.fields;
  ignore (object_size tenv (Ctype.Struct name) (fun () -> "struct " ^ name))

type ctx = {
  tenv : Ctype.tenv;
  prog : Ir.program;
  vars : (string, [ `Reg of Ctype.t | `Stack of Ctype.t ]) Hashtbl.t;
  fn : Ir.func;
}

let var_type ctx name =
  match Hashtbl.find_opt ctx.vars name with
  | Some (`Reg ty | `Stack ty) -> ty
  | None -> err "%s: unknown variable %s" ctx.fn.fname name

let rec type_of ctx (e : Ir.expr) : Ctype.t =
  match e with
  | Int _ -> Ctype.I64
  | Float _ -> Ctype.F64
  | Var name -> var_type ctx name
  | Binop (op, a, b) -> type_of_binop ctx op a b
  | Unop (op, a) -> type_of_unop ctx op a
  | Load (ty, addr) ->
    if not (Ctype.is_scalar ty) then
      err "%s: load of non-scalar %s" ctx.fn.fname (Ctype.to_string ctx.tenv ty);
    let aty = type_of ctx addr in
    if not (compat aty (Ctype.Ptr ty)) then
      err "%s: load address has type %s, expected %s*" ctx.fn.fname
        (Ctype.to_string ctx.tenv aty)
        (Ctype.to_string ctx.tenv ty);
    ty
  | Addr_local name -> (
    match Hashtbl.find_opt ctx.vars name with
    | Some (`Stack ty) -> Ctype.Ptr ty
    | Some (`Reg _) ->
      err "%s: address taken of register local %s (use Decl_local)"
        ctx.fn.fname name
    | None -> err "%s: unknown local %s" ctx.fn.fname name)
  | Addr_global g -> (
    match Ir.find_global ctx.prog g with
    | Some { gty; _ } -> Ctype.Ptr gty
    | None -> err "%s: unknown global %s" ctx.fn.fname g)
  | Load_global g -> (
    match Ir.find_global ctx.prog g with
    | Some { gty; _ } when Ctype.is_scalar gty -> gty
    | Some _ -> err "%s: by-name access to aggregate global %s" ctx.fn.fname g
    | None -> err "%s: unknown global %s" ctx.fn.fname g)
  | Gep (pointee, base, steps) ->
    (* an array pointee may be spelled in type position ([i64[4]*]),
       where no declaration checked its size; its size is the stride *)
    (match pointee with
    | Ctype.Array _ ->
      ignore (object_size ctx.tenv pointee (fun () -> ctx.fn.fname ^ ": gep"))
    | _ -> ());
    let bty = type_of ctx base in
    if not (compat bty (Ctype.Ptr pointee)) then
      err "%s: Gep base has type %s, expected %s*" ctx.fn.fname
        (Ctype.to_string ctx.tenv bty)
        (Ctype.to_string ctx.tenv pointee);
    List.iter
      (function
        | Ir.S_index ie ->
          let ity = type_of ctx ie in
          if not (is_int ity) then err "%s: Gep index not an integer" ctx.fn.fname
        | Ir.S_field _ -> ())
      steps;
    Ctype.Ptr (type_of_gep ctx.tenv pointee steps)
  | Call (fn, args) -> (
    match Ir.find_func ctx.prog fn with
    | None -> (
      match builtin_sig fn with
      | Some (ptys, ret) ->
        if List.length args <> List.length ptys then
          err "%s: builtin %s arity" ctx.fn.fname fn;
        List.iter2
          (fun arg pty ->
            if not (compat (type_of ctx arg) pty) then
              err "%s: builtin %s argument type" ctx.fn.fname fn)
          args ptys;
        ret
      | None -> err "%s: call to unknown function %s" ctx.fn.fname fn)
    | Some f ->
      if List.length args <> List.length f.params then
        err "%s: call to %s with %d args, expected %d" ctx.fn.fname fn
          (List.length args) (List.length f.params);
      List.iter2
        (fun arg (pname, pty) ->
          let aty = type_of ctx arg in
          if not (compat aty pty) then
            err "%s: call %s argument %s: got %s, expected %s" ctx.fn.fname fn
              pname
              (Ctype.to_string ctx.tenv aty)
              (Ctype.to_string ctx.tenv pty))
        args f.params;
      f.ret)
  | Malloc (ty, n) ->
    ignore (object_size ctx.tenv ty (fun () -> ctx.fn.fname ^ ": malloc"));
    if not (is_int (type_of ctx n)) then
      err "%s: malloc count not an integer" ctx.fn.fname;
    Ctype.Ptr ty
  | Malloc_bytes n ->
    if not (is_int (type_of ctx n)) then
      err "%s: malloc_bytes size not an integer" ctx.fn.fname;
    Ctype.Ptr Ctype.I8
  | Malloc_sized (ty, n) ->
    ignore (object_size ctx.tenv ty (fun () -> ctx.fn.fname ^ ": malloc_sized"));
    if not (is_int (type_of ctx n)) then
      err "%s: malloc_sized size not an integer" ctx.fn.fname;
    Ctype.Ptr ty
  | Cast (ty, e) ->
    let ety = type_of ctx e in
    (match (ty, ety) with
    | (Ctype.Ptr _ | Ctype.I64), _ | _, (Ctype.Ptr _ | Ctype.I64) -> ()
    | a, b when is_int a && is_int b -> ()
    | Ctype.F64, b when is_int b -> ()
    | a, Ctype.F64 when is_int a -> ()
    | _ ->
      err "%s: invalid cast from %s to %s" ctx.fn.fname
        (Ctype.to_string ctx.tenv ety)
        (Ctype.to_string ctx.tenv ty));
    ty
  | Ifp_promote e -> type_of ctx e

and type_of_binop ctx op a b =
  let ta = type_of ctx a and tb = type_of ctx b in
  match op with
  | LAnd | LOr ->
    let truthy = function
      | Ctype.(I8 | I16 | I32 | I64 | Ptr _) -> true
      | Ctype.(Void | F64 | Struct _ | Array _) -> false
    in
    if truthy ta && truthy tb then Ctype.I64
    else err "%s: logical op on %s/%s" ctx.fn.fname
        (Ctype.to_string ctx.tenv ta) (Ctype.to_string ctx.tenv tb)
  | Add | Sub | Mul | Div | Rem | BAnd | BOr | BXor | Shl | Shr ->
    if is_int ta && is_int tb then Ctype.I64
    else err "%s: integer binop on %s/%s" ctx.fn.fname
        (Ctype.to_string ctx.tenv ta) (Ctype.to_string ctx.tenv tb)
  | Eq | Ne | Lt | Le | Gt | Ge ->
    let both_int = is_int ta && is_int tb in
    let both_ptr =
      match (ta, tb) with Ctype.Ptr _, Ctype.Ptr _ -> true | _ -> false
    in
    if both_int || both_ptr then Ctype.I64
    else err "%s: comparison of %s and %s" ctx.fn.fname
        (Ctype.to_string ctx.tenv ta) (Ctype.to_string ctx.tenv tb)
  | FAdd | FSub | FMul | FDiv ->
    if Ctype.equal ta Ctype.F64 && Ctype.equal tb Ctype.F64 then Ctype.F64
    else err "%s: float binop on non-floats" ctx.fn.fname
  | FEq | FLt | FLe ->
    if Ctype.equal ta Ctype.F64 && Ctype.equal tb Ctype.F64 then Ctype.I64
    else err "%s: float comparison on non-floats" ctx.fn.fname

and type_of_unop ctx op a =
  let ta = type_of ctx a in
  match op with
  | Neg | BNot | LNot ->
    if is_int ta then Ctype.I64 else err "%s: integer unop on non-int" ctx.fn.fname
  | FNeg ->
    if Ctype.equal ta Ctype.F64 then Ctype.F64
    else err "%s: fneg on non-float" ctx.fn.fname
  | I2F ->
    if is_int ta then Ctype.F64 else err "%s: i2f on non-int" ctx.fn.fname
  | F2I ->
    if Ctype.equal ta Ctype.F64 then Ctype.I64
    else err "%s: f2i on non-float" ctx.fn.fname

let rec check_stmt ctx ~in_loop (s : Ir.stmt) =
  match s with
  | Let (name, ty, e) ->
    (* re-declaration is allowed (C block scoping is flattened per
       function) but must keep a compatible type *)
    (match Hashtbl.find_opt ctx.vars name with
    | Some (`Stack _) ->
      err "%s: %s redeclared as register local" ctx.fn.fname name
    | Some (`Reg old) when not (compat old ty) ->
      err "%s: %s redeclared with incompatible type" ctx.fn.fname name
    | Some (`Reg _) | None -> ());
    if not (Ctype.is_scalar ty) then
      err "%s: Let %s of aggregate type (use Decl_local)" ctx.fn.fname name;
    let ety = type_of ctx e in
    if not (compat ety ty) then
      err "%s: Let %s: got %s, expected %s" ctx.fn.fname name
        (Ctype.to_string ctx.tenv ety)
        (Ctype.to_string ctx.tenv ty);
    Hashtbl.replace ctx.vars name (`Reg ty)
  | Assign (name, e) ->
    let ty = var_type ctx name in
    (match Hashtbl.find_opt ctx.vars name with
    | Some (`Stack _) ->
      err "%s: assignment to stack local %s (use Store)" ctx.fn.fname name
    | Some (`Reg _) | None -> ());
    let ety = type_of ctx e in
    if not (compat ety ty) then
      err "%s: assign %s: got %s, expected %s" ctx.fn.fname name
        (Ctype.to_string ctx.tenv ety)
        (Ctype.to_string ctx.tenv ty)
  | Decl_local (name, ty) ->
    if Hashtbl.mem ctx.vars name then
      err "%s: duplicate variable %s" ctx.fn.fname name;
    let local () = Printf.sprintf "%s: local %s" ctx.fn.fname name in
    if object_size ctx.tenv ty local <= 0 then
      err "%s: zero-sized local %s" ctx.fn.fname name;
    Hashtbl.replace ctx.vars name (`Stack ty)
  | Store (ty, addr, value) ->
    if not (Ctype.is_scalar ty) then err "%s: store of non-scalar" ctx.fn.fname;
    let aty = type_of ctx addr in
    if not (compat aty (Ctype.Ptr ty)) then
      err "%s: store address has type %s, expected %s*" ctx.fn.fname
        (Ctype.to_string ctx.tenv aty)
        (Ctype.to_string ctx.tenv ty);
    let vty = type_of ctx value in
    if not (compat vty ty) then
      err "%s: store value has type %s, expected %s" ctx.fn.fname
        (Ctype.to_string ctx.tenv vty)
        (Ctype.to_string ctx.tenv ty)
  | Store_global (g, e) -> (
    match Ir.find_global ctx.prog g with
    | Some { gty; _ } when Ctype.is_scalar gty ->
      let ety = type_of ctx e in
      if not (compat ety gty) then
        err "%s: store_global %s type mismatch" ctx.fn.fname g
    | Some _ -> err "%s: by-name store to aggregate global %s" ctx.fn.fname g
    | None -> err "%s: unknown global %s" ctx.fn.fname g)
  | If (c, t, e) ->
    ignore (type_of ctx c);
    List.iter (check_stmt ctx ~in_loop) t;
    List.iter (check_stmt ctx ~in_loop) e
  | While (c, body) ->
    ignore (type_of ctx c);
    List.iter (check_stmt ctx ~in_loop:true) body
  | Return None ->
    if not (Ctype.equal ctx.fn.ret Ctype.Void) then
      err "%s: empty return from non-void function" ctx.fn.fname
  | Return (Some e) ->
    let ety = type_of ctx e in
    if Ctype.equal ctx.fn.ret Ctype.Void then
      err "%s: value return from void function" ctx.fn.fname;
    if not (compat ety ctx.fn.ret) then
      err "%s: return type %s, expected %s" ctx.fn.fname
        (Ctype.to_string ctx.tenv ety)
        (Ctype.to_string ctx.tenv ctx.fn.ret)
  | Expr e -> ignore (type_of ctx e)
  | Free e -> (
    match type_of ctx e with
    | Ctype.Ptr _ -> ()
    | ty -> err "%s: free of non-pointer %s" ctx.fn.fname (Ctype.to_string ctx.tenv ty))
  | Break | Continue ->
    if not in_loop then err "%s: break/continue outside loop" ctx.fn.fname
  | Ifp_register_local name | Ifp_deregister_local name -> (
    match Hashtbl.find_opt ctx.vars name with
    | Some (`Stack _) -> ()
    | Some (`Reg _) | None ->
      err "%s: Ifp_(de)register_local of non-stack var %s" ctx.fn.fname name)

let check_func prog f =
  let ctx =
    { tenv = prog.Ir.tenv; prog; vars = Hashtbl.create 16; fn = f }
  in
  List.iter
    (fun (name, ty) ->
      if not (Ctype.is_scalar ty) then
        err "%s: aggregate parameter %s (pass a pointer)" f.Ir.fname name;
      Hashtbl.replace ctx.vars name (`Reg ty))
    f.Ir.params;
  List.iter (check_stmt ctx ~in_loop:false) f.Ir.body

let check_program prog =
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (f : Ir.func) ->
      (* a builtin's name is taken: calls to it bind the builtin *)
      if Hashtbl.mem seen f.fname || Option.is_some (builtin_sig f.fname) then
        err "duplicate function %s" f.fname;
      Hashtbl.replace seen f.fname ())
    prog.Ir.funcs;
  let gseen = Hashtbl.create 16 in
  List.iter
    (fun (g : Ir.global) ->
      if Hashtbl.mem gseen g.gname then err "duplicate global %s" g.gname;
      Hashtbl.replace gseen g.gname ())
    prog.Ir.globals;
  List.iter (check_struct prog.Ir.tenv) (Ctype.bindings prog.Ir.tenv);
  List.iter
    (fun (g : Ir.global) ->
      ignore (object_size prog.Ir.tenv g.gty (fun () -> "global " ^ g.gname)))
    prog.Ir.globals;
  List.iter (check_func prog) prog.Ir.funcs
