type var = string

type binop =
  | Add | Sub | Mul | Div | Rem
  | BAnd | BOr | BXor | Shl | Shr
  | LAnd | LOr
  | Eq | Ne | Lt | Le | Gt | Ge
  | FAdd | FSub | FMul | FDiv
  | FEq | FLt | FLe

type unop = Neg | LNot | BNot | FNeg | I2F | F2I

type gstep = S_field of string | S_index of expr

and expr =
  | Int of int64
  | Float of float
  | Var of var
  | Binop of binop * expr * expr
  | Unop of unop * expr
  | Load of Ifp_types.Ctype.t * expr
  | Addr_local of var
  | Addr_global of string
  | Load_global of string
  | Gep of Ifp_types.Ctype.t * expr * gstep list
  | Call of string * expr list
  | Malloc of Ifp_types.Ctype.t * expr
  | Malloc_bytes of expr
  | Malloc_sized of Ifp_types.Ctype.t * expr
  | Cast of Ifp_types.Ctype.t * expr
  | Ifp_promote of expr

and stmt =
  | Let of var * Ifp_types.Ctype.t * expr
  | Assign of var * expr
  | Decl_local of var * Ifp_types.Ctype.t
  | Store of Ifp_types.Ctype.t * expr * expr
  | Store_global of string * expr
  | If of expr * stmt list * stmt list
  | While of expr * stmt list
  | Return of expr option
  | Expr of expr
  | Free of expr
  | Break
  | Continue
  | Ifp_register_local of var
  | Ifp_deregister_local of var

type func = {
  fname : string;
  params : (var * Ifp_types.Ctype.t) list;
  ret : Ifp_types.Ctype.t;
  body : stmt list;
  instrumented : bool;
}

type global = {
  gname : string;
  gty : Ifp_types.Ctype.t;
  mutable registered : bool;
}

type program = {
  tenv : Ifp_types.Ctype.tenv;
  globals : global list;
  funcs : func list;
}

let func ?(instrumented = true) fname params ret body =
  { fname; params; ret; body; instrumented }

let global gname gty = { gname; gty; registered = false }

let program ~tenv ~globals funcs = { tenv; globals; funcs }

let find_func p name =
  List.find_opt (fun f -> String.equal f.fname name) p.funcs

let find_global p name =
  List.find_opt (fun g -> String.equal g.gname name) p.globals

(* ---- traversal -------------------------------------------------------- *)

(* The one place that knows which nodes have children. Everything
   evaluates children left to right: OCaml evaluates constructor
   arguments right to left, so each rebuild names its children with
   [let] first. *)

let rec fold_steps f acc = function
  | [] -> acc
  | S_index ie :: rest -> fold_steps f (f acc ie) rest
  | S_field _ :: rest -> fold_steps f acc rest

let fold_children f acc e =
  match e with
  | Int _ | Float _ | Var _ | Addr_local _ | Addr_global _ | Load_global _ -> acc
  | Binop (_, a, b) -> f (f acc a) b
  | Unop (_, a)
  | Load (_, a)
  | Malloc (_, a)
  | Malloc_bytes a
  | Malloc_sized (_, a)
  | Cast (_, a)
  | Ifp_promote a ->
    f acc a
  | Gep (_, base, steps) -> fold_steps f (f acc base) steps
  | Call (_, args) -> List.fold_left f acc args

let children e = List.rev (fold_children (fun acc c -> c :: acc) [] e)

let map_children f e =
  match e with
  | Int _ | Float _ | Var _ | Addr_local _ | Addr_global _ | Load_global _ -> e
  | Binop (op, a, b) ->
    let a = f a in
    let b = f b in
    Binop (op, a, b)
  | Unop (op, a) -> Unop (op, f a)
  | Load (ty, a) -> Load (ty, f a)
  | Malloc (ty, a) -> Malloc (ty, f a)
  | Malloc_bytes a -> Malloc_bytes (f a)
  | Malloc_sized (ty, a) -> Malloc_sized (ty, f a)
  | Cast (ty, a) -> Cast (ty, f a)
  | Ifp_promote a -> Ifp_promote (f a)
  | Gep (ty, base, steps) ->
    let base = f base in
    let steps =
      List.map (function S_index ie -> S_index (f ie) | S_field _ as s -> s) steps
    in
    Gep (ty, base, steps)
  | Call (fn, args) -> Call (fn, List.map f args)

let fold_stmt_exprs f acc s =
  match s with
  | Let (_, _, e) | Assign (_, e) | Store_global (_, e) | Return (Some e) | Expr e
  | Free e | If (e, _, _) | While (e, _) ->
    f acc e
  | Store (_, a, e) -> f (f acc a) e
  | Decl_local _ | Return None | Break | Continue | Ifp_register_local _
  | Ifp_deregister_local _ ->
    acc

let map_stmt f block s =
  match s with
  | Let (v, ty, e) -> Let (v, ty, f e)
  | Assign (v, e) -> Assign (v, f e)
  | Store_global (g, e) -> Store_global (g, f e)
  | Return (Some e) -> Return (Some (f e))
  | Expr e -> Expr (f e)
  | Free e -> Free (f e)
  | Store (ty, a, e) ->
    let a = f a in
    let e = f e in
    Store (ty, a, e)
  | If (c, t, e) ->
    let c = f c in
    let t = block t in
    let e = block e in
    If (c, t, e)
  | While (c, b) ->
    let c = f c in
    While (c, block b)
  | Decl_local _ | Return None | Break | Continue | Ifp_register_local _
  | Ifp_deregister_local _ ->
    s

let rec fold_stmts f acc = function
  | [] -> acc
  | s :: rest ->
    let acc = f acc s in
    let acc =
      match s with
      | If (_, t, e) -> fold_stmts f (fold_stmts f acc t) e
      | While (_, b) -> fold_stmts f acc b
      | Let _ | Assign _ | Decl_local _ | Store _ | Store_global _ | Return _
      | Expr _ | Free _ | Break | Continue | Ifp_register_local _
      | Ifp_deregister_local _ ->
        acc
    in
    fold_stmts f acc rest

let fold_exprs f acc ss =
  let rec expr acc e = fold_children expr (f acc e) e in
  fold_stmts (fold_stmt_exprs expr) acc ss

(* ---- structural equality -------------------------------------------- *)

(* Explicit recursion rather than polymorphic compare: [tenv] is a Map
   (tree shape is not canonical), floats must compare by bits (so nan =
   nan and -0.0 <> 0.0 are both deterministic), and [registered] is
   mutable instrumentation state that two otherwise-identical programs
   may disagree on. *)

let rec equal_expr a b =
  match (a, b) with
  | Int x, Int y -> Int64.equal x y
  | Float x, Float y ->
    Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Var x, Var y -> String.equal x y
  | Binop (o1, a1, b1), Binop (o2, a2, b2) ->
    o1 = o2 && equal_expr a1 a2 && equal_expr b1 b2
  | Unop (o1, a1), Unop (o2, a2) -> o1 = o2 && equal_expr a1 a2
  | Load (t1, e1), Load (t2, e2) ->
    Ifp_types.Ctype.equal t1 t2 && equal_expr e1 e2
  | Addr_local x, Addr_local y | Addr_global x, Addr_global y
  | Load_global x, Load_global y ->
    String.equal x y
  | Gep (t1, b1, s1), Gep (t2, b2, s2) ->
    Ifp_types.Ctype.equal t1 t2 && equal_expr b1 b2
    && List.length s1 = List.length s2
    && List.for_all2 equal_gstep s1 s2
  | Call (f1, a1), Call (f2, a2) ->
    String.equal f1 f2
    && List.length a1 = List.length a2
    && List.for_all2 equal_expr a1 a2
  | Malloc (t1, e1), Malloc (t2, e2) | Malloc_sized (t1, e1), Malloc_sized (t2, e2)
  | Cast (t1, e1), Cast (t2, e2) ->
    Ifp_types.Ctype.equal t1 t2 && equal_expr e1 e2
  | Malloc_bytes e1, Malloc_bytes e2 | Ifp_promote e1, Ifp_promote e2 ->
    equal_expr e1 e2
  | ( ( Int _ | Float _ | Var _ | Binop _ | Unop _ | Load _ | Addr_local _
      | Addr_global _ | Load_global _ | Gep _ | Call _ | Malloc _
      | Malloc_bytes _ | Malloc_sized _ | Cast _ | Ifp_promote _ ),
      _ ) ->
    false

and equal_gstep a b =
  match (a, b) with
  | S_field x, S_field y -> String.equal x y
  | S_index x, S_index y -> equal_expr x y
  | (S_field _ | S_index _), _ -> false

let rec equal_stmt a b =
  match (a, b) with
  | Let (v1, t1, e1), Let (v2, t2, e2) ->
    String.equal v1 v2 && Ifp_types.Ctype.equal t1 t2 && equal_expr e1 e2
  | Assign (v1, e1), Assign (v2, e2) | Store_global (v1, e1), Store_global (v2, e2)
    ->
    String.equal v1 v2 && equal_expr e1 e2
  | Decl_local (v1, t1), Decl_local (v2, t2) ->
    String.equal v1 v2 && Ifp_types.Ctype.equal t1 t2
  | Store (t1, a1, e1), Store (t2, a2, e2) ->
    Ifp_types.Ctype.equal t1 t2 && equal_expr a1 a2 && equal_expr e1 e2
  | If (c1, t1, e1), If (c2, t2, e2) ->
    equal_expr c1 c2 && equal_block t1 t2 && equal_block e1 e2
  | While (c1, b1), While (c2, b2) -> equal_expr c1 c2 && equal_block b1 b2
  | Return None, Return None -> true
  | Return (Some e1), Return (Some e2) -> equal_expr e1 e2
  | Expr e1, Expr e2 | Free e1, Free e2 -> equal_expr e1 e2
  | Break, Break | Continue, Continue -> true
  | Ifp_register_local v1, Ifp_register_local v2
  | Ifp_deregister_local v1, Ifp_deregister_local v2 ->
    String.equal v1 v2
  | ( ( Let _ | Assign _ | Decl_local _ | Store _ | Store_global _ | If _
      | While _ | Return _ | Expr _ | Free _ | Break | Continue
      | Ifp_register_local _ | Ifp_deregister_local _ ),
      _ ) ->
    false

and equal_block a b =
  List.length a = List.length b && List.for_all2 equal_stmt a b

let equal_func (a : func) (b : func) =
  String.equal a.fname b.fname
  && a.instrumented = b.instrumented
  && Ifp_types.Ctype.equal a.ret b.ret
  && List.length a.params = List.length b.params
  && List.for_all2
       (fun (n1, t1) (n2, t2) ->
         String.equal n1 n2 && Ifp_types.Ctype.equal t1 t2)
       a.params b.params
  && equal_block a.body b.body

(* [registered] is deliberately ignored: it is pass output, not program
   identity *)
let equal_global (a : global) (b : global) =
  String.equal a.gname b.gname && Ifp_types.Ctype.equal a.gty b.gty

let equal_tenv a b =
  let defs env =
    List.map
      (fun (name, (d : Ifp_types.Ctype.struct_def)) -> (name, d.sname, d.fields))
      (Ifp_types.Ctype.bindings env)
  in
  List.length (defs a) = List.length (defs b)
  && List.for_all2
       (fun (n1, s1, f1) (n2, s2, f2) ->
         String.equal n1 n2 && String.equal s1 s2
         && List.length f1 = List.length f2
         && List.for_all2
              (fun (x : Ifp_types.Ctype.field) (y : Ifp_types.Ctype.field) ->
                String.equal x.fname y.fname && Ifp_types.Ctype.equal x.fty y.fty)
              f1 f2)
       (defs a) (defs b)

let equal_program (a : program) (b : program) =
  equal_tenv a.tenv b.tenv
  && List.length a.globals = List.length b.globals
  && List.for_all2 equal_global a.globals b.globals
  && List.length a.funcs = List.length b.funcs
  && List.for_all2 equal_func a.funcs b.funcs

let i n = Int (Int64.of_int n)
let i64 n = Int n
let v name = Var name
let ( +: ) a b = Binop (Add, a, b)
let ( -: ) a b = Binop (Sub, a, b)
let ( *: ) a b = Binop (Mul, a, b)
let ( /: ) a b = Binop (Div, a, b)
let ( %: ) a b = Binop (Rem, a, b)
let ( <: ) a b = Binop (Lt, a, b)
let ( <=: ) a b = Binop (Le, a, b)
let ( >: ) a b = Binop (Gt, a, b)
let ( >=: ) a b = Binop (Ge, a, b)
let ( ==: ) a b = Binop (Eq, a, b)
let ( <>: ) a b = Binop (Ne, a, b)
let ( &&: ) a b = Binop (LAnd, a, b)
let ( ||: ) a b = Binop (LOr, a, b)
let null ty = Cast (Ifp_types.Ctype.Ptr ty, Int 0L)

let idx base index steps pointee = Gep (pointee, base, S_index index :: steps)
let fld name = S_field name
let at e = S_index e
