(* Resolve: one-time lowering from the name-based IR to a slot-addressed
   program the VM can execute without any per-access hashing.

   The pass interns every variable and stack-local name to a dense
   integer slot, pre-binds call targets to function indices, resolves
   globals to indices in a flat table, and bakes in every quantity the
   interpreter previously recomputed per access: scalar sizes, struct
   field offsets, gep element strides and static subobject-index deltas,
   malloc size scales and layout multiplicity, cast/let coercion kinds.

   The input contract: the program passed [Typecheck.check_program]
   before instrumentation. Every name then resolves, every gep step is
   well-formed, call arities match and no [Let] binds an aggregate, so
   the lowered program has no node that only aborts; a violation raises
   [Invalid_argument] naming it. The lowering is purely structural — it
   must not change observable behaviour. Typecheck is flow-insensitive,
   so a variable or stack local may still be read on a path that never
   bound it; slots for such names exist and the VM detects the unbound
   state with a sentinel, aborting with the reference message. *)

module Ctype = Ifp_types.Ctype
module Layout = Ifp_types.Layout

(* Scalar class of a memory access: decides how raw little-endian bytes
   become a value and back. *)
type vclass = Cls_int | Cls_f64 | Cls_ptr

type cast_kind =
  | Cast_ptr
  | Cast_f64
  | Cast_int of int  (* sign-extension width: max 1 (sizeof target) *)

type coerce_kind = K_i8 | K_i16 | K_i32 | K_i64 | K_f64 | K_ptr

type call_target =
  | C_func of int
  | C_print_i64
  | C_print_f64
  | C_abort

type gstep =
  | Rs_field of { off : int; fsize : int }
      (** struct member: add [off]; narrowed bounds are [fsize] bytes *)
  | Rs_index of { esize : int; idx : expr }
      (** dynamic index with element stride [esize] *)

and expr =
  | Int of int64
  | Float of float
  | Var of int
  | Binop of Ir.binop * expr * expr
  | Unop of Ir.unop * expr
  | Load of { cls : vclass; bytes : int; addr : expr }
  | Addr_local of int
  | Addr_global of int
  | Load_global of { g : int; cls : vclass; bytes : int }
  | Gep of { base : expr; steps : gstep list; idx_delta : int; site : int }
  | Call of { target : call_target; args : expr list; n_args : int }
  | Malloc of {
      scale : int;  (* bytes per count unit: sizeof elem, or 1 *)
      count : expr;
      cty : Ctype.t option;  (* element type handed to the allocator *)
      layout_multi : bool;  (* layout table has > 1 element *)
    }
  | Cast of { kind : cast_kind; e : expr }
  | Ifp_promote of { e : expr; site : int }

type stmt =
  | Let of { slot : int; k : coerce_kind; e : expr }
  | Assign of { slot : int; e : expr }
  | Decl_local of { slot : int; size : int; tyid : int }
  | Store of { cls : vclass; bytes : int; addr : expr; v : expr }
  | Store_global of { g : int; cls : vclass; bytes : int; e : expr }
  | If of expr * stmt list * stmt list
  | While of expr * stmt list
  | Return of expr option
  | Expr of expr
  | Free of expr
  | Break
  | Continue
  | Ifp_register_local of { slot : int; site : int }
  | Ifp_deregister_local of int

type func = {
  fname : string;
  params : int list;  (* var slots of the parameters, in order *)
  n_vars : int;
  var_names : string array;  (* slot -> source name, diagnostics only *)
  n_locals : int;
  local_names : string array;
  body : stmt list;
  instrumented : bool;
  has_calls : bool;
  ptr_regs : int;
}

type rglobal = {
  gname : string;
  gty : Ctype.t;
  gsize : int;  (* raw sizeof; the VM allocates max 1 gsize bytes *)
  gregistered : bool;
}

type program = {
  tenv : Ctype.tenv;
  globals : rglobal array;
  funcs : func array;
  main : int;  (* index into funcs, or -1 *)
  types : Ctype.t array;  (* local-decl types: the VM's layout-ptr cache key *)
  n_sites : int;  (* program-wide site-id count (geps, promotes, registers) *)
}

(* ------------------------------------------------------------------ *)

(* a violation of the input contract: the name or step Typecheck would
   have rejected *)
let ill_typed fmt = Printf.ksprintf (fun s -> invalid_arg ("Resolve.run: " ^ s)) fmt

type renv = {
  tenv : Ctype.tenv;
  fidx : (string, int) Hashtbl.t;  (* function name -> index *)
  fparams : int array;  (* function index -> parameter count *)
  gidx : (string, int) Hashtbl.t;  (* global name -> index *)
  globals : rglobal array;
  tyids : (Ctype.t, int) Hashtbl.t;
  mutable types_rev : Ctype.t list;
  mutable n_types : int;
  layouts : (Ctype.t, Layout.t) Hashtbl.t;  (* resolve-time only *)
  mutable n_sites : int;  (* next site id *)
}

(* Site ids name static program points (geps, promotes, local
   registrations). They are assigned by a single program-order counter
   during the one deterministic resolution walk — never from hash-table
   iteration — so re-resolving the same program yields the same ids at
   the same nodes (required for plan digests built over resolved
   programs to stay deterministic). *)
let new_site r =
  let s = r.n_sites in
  r.n_sites <- s + 1;
  s

type fenv = {
  vslots : (string, int) Hashtbl.t;
  mutable vnames_rev : string list;
  mutable n_vars : int;
  lslots : (string, int) Hashtbl.t;
  mutable lnames_rev : string list;
  mutable n_locals : int;
}

let tyid_of r ty =
  match Hashtbl.find_opt r.tyids ty with
  | Some i -> i
  | None ->
    let i = r.n_types in
    Hashtbl.replace r.tyids ty i;
    r.types_rev <- ty :: r.types_rev;
    r.n_types <- i + 1;
    i

let layout_of r ty =
  match Hashtbl.find_opt r.layouts ty with
  | Some l -> l
  | None ->
    let l = Layout.build r.tenv ty in
    Hashtbl.replace r.layouts ty l;
    l

let var_slot fe name =
  match Hashtbl.find_opt fe.vslots name with
  | Some s -> s
  | None ->
    let s = fe.n_vars in
    Hashtbl.replace fe.vslots name s;
    fe.vnames_rev <- name :: fe.vnames_rev;
    fe.n_vars <- s + 1;
    s

let local_slot fe name =
  match Hashtbl.find_opt fe.lslots name with
  | Some s -> s
  | None ->
    let s = fe.n_locals in
    Hashtbl.replace fe.lslots name s;
    fe.lnames_rev <- name :: fe.lnames_rev;
    fe.n_locals <- s + 1;
    s

let vclass_of ty =
  match ty with
  | Ctype.Ptr _ -> Cls_ptr
  | Ctype.F64 -> Cls_f64
  | _ -> Cls_int

let coerce_kind_of ty =
  match ty with
  | Ctype.I8 -> K_i8
  | Ctype.I16 -> K_i16
  | Ctype.I32 -> K_i32
  | Ctype.I64 -> K_i64
  | Ctype.F64 -> K_f64
  | Ctype.Ptr _ -> K_ptr
  | Ctype.Void | Ctype.Struct _ | Ctype.Array _ -> ill_typed "Let of a non-scalar"

let global_index r g =
  match Hashtbl.find_opt r.gidx g with
  | Some i -> i
  | None -> ill_typed "unknown global %s" g

(* a by-name access to global [g]: its index, value class and size *)
let global_access r g =
  let i = global_index r g in
  let { gty; gsize; _ } = r.globals.(i) in
  (i, vclass_of gty, gsize)

(* Merge runs of consecutive field steps: offsets add, and the narrowed
   bounds the VM derives come from the last field of the run at the
   accumulated address, so a single step with the summed offset and the
   last field's size is observationally identical. Most struct geps
   collapse to one static step this way. *)
let rec fold_fields = function
  | Rs_field { off = o1; fsize = _ } :: Rs_field { off = o2; fsize } :: rest ->
    fold_fields (Rs_field { off = o1 + o2; fsize } :: rest)
  | s :: rest -> s :: fold_fields rest
  | [] -> []

(* Static mirror of the interpreter's gep walk, on Typecheck's step
   rule *)
let rec resolve_gep_steps r fe pointee steps =
  let step acc : Typecheck.gep_step -> gstep list = function
    | Field { sname; field; fty } ->
      let off, _ = Ctype.field_offset r.tenv sname field in
      Rs_field { off; fsize = Ctype.sizeof r.tenv fty } :: acc
    | Elem { idx; elt = ty; _ } | Arith { idx; ty } ->
      let idx = resolve_expr r fe idx in
      Rs_index { esize = Ctype.sizeof r.tenv ty; idx } :: acc
  in
  match Typecheck.fold_gep r.tenv pointee steps step [] with
  | Ok acc -> List.rev acc
  | Error (_, No_field { sname; field }) ->
    ill_typed "gep: struct %s has no field %s" sname field
  | Error (_, Not_struct { field; _ }) -> ill_typed "gep: field %s of a non-struct" field
  | Error (_, Not_array _) -> ill_typed "gep: index into a non-array"

and resolve_expr r fe (e : Ir.expr) : expr =
  match e with
  | Ir.Int x -> Int x
  | Ir.Float f -> Float f
  | Ir.Var name -> Var (var_slot fe name)
  | Ir.Binop (op, a, b) -> Binop (op, resolve_expr r fe a, resolve_expr r fe b)
  | Ir.Unop (op, a) -> Unop (op, resolve_expr r fe a)
  | Ir.Load (ty, addr) ->
    Load
      {
        cls = vclass_of ty;
        bytes = Ctype.sizeof r.tenv ty;
        addr = resolve_expr r fe addr;
      }
  | Ir.Addr_local name -> Addr_local (local_slot fe name)
  | Ir.Addr_global g -> Addr_global (global_index r g)
  | Ir.Load_global g ->
    let g, cls, bytes = global_access r g in
    Load_global { g; cls; bytes }
  | Ir.Gep (pointee, base, steps) ->
    let site = new_site r in
    let rsteps = fold_fields (resolve_gep_steps r fe pointee steps) in
    let idx_delta =
      (* the static subobject-index immediate the compiler would bake
         into ifpidx (reference: Vm.gep_idx_delta) *)
      match Typecheck.layout_path r.tenv pointee steps with
      | [] -> 0
      | path -> (
        match Layout.index_of_path (layout_of r pointee) path with
        | Some d -> d
        | None -> 0)
    in
    let base = resolve_expr r fe base in
    Gep { base; steps = rsteps; idx_delta; site }
  | Ir.Call (fn, args) ->
    let target, arity =
      match fn with
      | "__print_i64" -> (C_print_i64, 1)
      | "__print_f64" -> (C_print_f64, 1)
      | "__abort" -> (C_abort, 0)
      | _ -> (
        match Hashtbl.find_opt r.fidx fn with
        | Some i -> (C_func i, r.fparams.(i))
        | None -> ill_typed "call to unknown function %s" fn)
    in
    let n_args = List.length args in
    if n_args <> arity then
      ill_typed "call to %s with %d arguments, expected %d" fn n_args arity;
    Call { target; args = List.map (resolve_expr r fe) args; n_args }
  | Ir.Malloc (ty, n) ->
    Malloc
      {
        scale = Ctype.sizeof r.tenv ty;
        count = resolve_expr r fe n;
        cty = Some ty;
        layout_multi = Layout.length (layout_of r ty) > 1;
      }
  | Ir.Malloc_bytes n ->
    Malloc { scale = 1; count = resolve_expr r fe n; cty = None; layout_multi = false }
  | Ir.Malloc_sized (ty, n) ->
    Malloc
      {
        scale = 1;
        count = resolve_expr r fe n;
        cty = Some ty;
        layout_multi = Layout.length (layout_of r ty) > 1;
      }
  | Ir.Cast (ty, a) ->
    let kind =
      match ty with
      | Ctype.Ptr _ -> Cast_ptr
      | Ctype.F64 -> Cast_f64
      | _ -> Cast_int (max 1 (Ctype.sizeof r.tenv ty))
    in
    Cast { kind; e = resolve_expr r fe a }
  | Ir.Ifp_promote e ->
    let site = new_site r in
    Ifp_promote { e = resolve_expr r fe e; site }

let rec resolve_stmt r fe (s : Ir.stmt) : stmt =
  match s with
  | Ir.Let (name, ty, e) ->
    let e = resolve_expr r fe e in
    Let { slot = var_slot fe name; k = coerce_kind_of ty; e }
  | Ir.Assign (name, e) ->
    let e = resolve_expr r fe e in
    Assign { slot = var_slot fe name; e }
  | Ir.Decl_local (name, ty) ->
    Decl_local
      {
        slot = local_slot fe name;
        size = Ctype.sizeof r.tenv ty;
        tyid = tyid_of r ty;
      }
  | Ir.Store (ty, addr, v) ->
    Store
      {
        cls = vclass_of ty;
        bytes = Ctype.sizeof r.tenv ty;
        addr = resolve_expr r fe addr;
        v = resolve_expr r fe v;
      }
  | Ir.Store_global (g, e) ->
    let e = resolve_expr r fe e in
    let g, cls, bytes = global_access r g in
    Store_global { g; cls; bytes; e }
  | Ir.If (c, t, e) ->
    If
      ( resolve_expr r fe c,
        List.map (resolve_stmt r fe) t,
        List.map (resolve_stmt r fe) e )
  | Ir.While (c, body) ->
    While (resolve_expr r fe c, List.map (resolve_stmt r fe) body)
  | Ir.Return None -> Return None
  | Ir.Return (Some e) -> Return (Some (resolve_expr r fe e))
  | Ir.Expr e -> Expr (resolve_expr r fe e)
  | Ir.Free e -> Free (resolve_expr r fe e)
  | Ir.Break -> Break
  | Ir.Continue -> Continue
  | Ir.Ifp_register_local name ->
    Ifp_register_local { slot = local_slot fe name; site = new_site r }
  | Ir.Ifp_deregister_local name -> Ifp_deregister_local (local_slot fe name)

(* Register-pressure scan for the spill cost model (reference:
   Vm.func_meta_of). *)
let func_meta_of (f : Ir.func) =
  let is_ptr ty = match ty with Ctype.Ptr _ -> true | _ -> false in
  let has_calls =
    Ir.fold_exprs
      (fun calls (e : Ir.expr) -> calls || match e with Call _ -> true | _ -> false)
      false f.body
  in
  let ptr_regs =
    Ir.fold_stmts
      (fun n (s : Ir.stmt) ->
        match s with Let (_, ty, _) when is_ptr ty -> n + 1 | _ -> n)
      (List.length (List.filter (fun (_, ty) -> is_ptr ty) f.params))
      f.body
  in
  (has_calls, ptr_regs)

let resolve_func r (f : Ir.func) : func =
  let fe =
    {
      vslots = Hashtbl.create 16;
      vnames_rev = [];
      n_vars = 0;
      lslots = Hashtbl.create 8;
      lnames_rev = [];
      n_locals = 0;
    }
  in
  let params = List.map (fun (pname, _) -> var_slot fe pname) f.params in
  let body = List.map (resolve_stmt r fe) f.body in
  let has_calls, ptr_regs = func_meta_of f in
  {
    fname = f.fname;
    params;
    n_vars = fe.n_vars;
    var_names = Array.of_list (List.rev fe.vnames_rev);
    n_locals = fe.n_locals;
    local_names = Array.of_list (List.rev fe.lnames_rev);
    body;
    instrumented = f.instrumented;
    has_calls;
    ptr_regs;
  }

(* name -> position in [items], for names declared once and not
   [reserved] *)
let index_names ?(reserved = Fun.const false) what name items =
  let t = Hashtbl.create 16 in
  List.iteri
    (fun i x ->
      let n = name x in
      if Hashtbl.mem t n || reserved n then ill_typed "duplicate %s %s" what n;
      Hashtbl.replace t n i)
    items;
  t

let run (prog : Ir.program) : program =
  let globals =
    Array.of_list
      (List.map
         (fun (g : Ir.global) ->
           {
             gname = g.gname;
             gty = g.gty;
             gsize = Ctype.sizeof prog.tenv g.gty;
             gregistered = g.registered;
           })
         prog.globals)
  in
  let r =
    {
      tenv = prog.tenv;
      fidx =
        index_names "function"
          ~reserved:(fun n -> Option.is_some (Typecheck.builtin_sig n))
          (fun (f : Ir.func) -> f.fname)
          prog.funcs;
      fparams =
        Array.of_list (List.map (fun (f : Ir.func) -> List.length f.params) prog.funcs);
      gidx = index_names "global" (fun (g : Ir.global) -> g.gname) prog.globals;
      globals;
      tyids = Hashtbl.create 16;
      types_rev = [];
      n_types = 0;
      layouts = Hashtbl.create 16;
      n_sites = 0;
    }
  in
  let funcs = Array.of_list (List.map (resolve_func r) prog.funcs) in
  let main =
    match Hashtbl.find_opt r.fidx "main" with Some i -> i | None -> -1
  in
  {
    tenv = prog.tenv;
    globals;
    funcs;
    main;
    types = Array.of_list (List.rev r.types_rev);
    n_sites = r.n_sites;
  }
