(** MiniC: the typed intermediate representation that MiniC source (the
    workloads included) parses into and the instrumentation pass
    transforms.

    The IR models the C subset that matters for spatial safety: structs,
    arrays, pointers, address-of, pointer arithmetic via {!Gep}
    (getelementptr-style typed paths), heap allocation, globals, and
    functions. Scalar locals that are never address-taken are declared
    with {!Let}/{!Assign} (register-allocated); aggregates and
    address-taken scalars are declared with {!Decl_local} (stack
    memory).

    The [Ifp_*] constructors are inserted by {!Instrument} — frontends
    (workloads, tests) never write them; the baseline VM mode never
    executes them. *)

type var = string

type binop =
  | Add | Sub | Mul | Div | Rem
  | BAnd | BOr | BXor | Shl | Shr
  | LAnd | LOr  (** short-circuit, like C [&&]/[||]; result 0/1 *)
  | Eq | Ne | Lt | Le | Gt | Ge  (** signed; pointers compare by address *)
  | FAdd | FSub | FMul | FDiv
  | FEq | FLt | FLe

type unop = Neg | LNot | BNot | FNeg | I2F | F2I

type gstep =
  | S_field of string  (** struct member selection *)
  | S_index of expr
      (** index: on the leading pointer it is pointer arithmetic, on an
          array-typed subobject it selects an element *)

and expr =
  | Int of int64
  | Float of float
  | Var of var
  | Binop of binop * expr * expr
  | Unop of unop * expr
  | Load of Ifp_types.Ctype.t * expr  (** [*(ty* )e]; [ty] scalar *)
  | Addr_local of var
  | Addr_global of string
  | Load_global of string  (** by-name scalar global read (no pointer) *)
  | Gep of Ifp_types.Ctype.t * expr * gstep list
      (** [Gep (pointee_ty, base, steps)]: typed address computation;
          [base : Ptr pointee_ty] *)
  | Call of string * expr list
  | Malloc of Ifp_types.Ctype.t * expr
      (** [Malloc (ty, n)] = [malloc (n * sizeof ty)] : [Ptr ty]; the
          element type is known to the compiler (layout table emitted) *)
  | Malloc_bytes of expr
      (** type-erased allocation through a wrapper function — no layout
          table can be attached (models CoreMark/bzip2/wolfcrypt,
          paper §5.2.1) : [Ptr I8] *)
  | Malloc_sized of Ifp_types.Ctype.t * expr
      (** [Malloc_sized (ty, bytes)] : [Ptr ty] — a byte-sized allocation
          whose element type was recovered by the allocation-wrapper
          inference of {!Instrument} (the paper's §5.2.1 future work);
          the layout table of [ty] is attached *)
  | Cast of Ifp_types.Ctype.t * expr
  | Ifp_promote of expr  (** inserted before untrusted pointer uses *)

and stmt =
  | Let of var * Ifp_types.Ctype.t * expr  (** scalar register local *)
  | Assign of var * expr
  | Decl_local of var * Ifp_types.Ctype.t  (** stack-allocated local *)
  | Store of Ifp_types.Ctype.t * expr * expr  (** [*(ty* )addr = v] *)
  | Store_global of string * expr  (** by-name scalar global write *)
  | If of expr * stmt list * stmt list
  | While of expr * stmt list
  | Return of expr option
  | Expr of expr
  | Free of expr
  | Break
  | Continue
  | Ifp_register_local of var  (** set up object metadata for a local *)
  | Ifp_deregister_local of var

type func = {
  fname : string;
  params : (var * Ifp_types.Ctype.t) list;
  ret : Ifp_types.Ctype.t;
  body : stmt list;
  instrumented : bool;
      (** [false] models a legacy (uninstrumented) library function: the
          pass leaves it alone and the VM applies legacy semantics *)
}

type global = {
  gname : string;
  gty : Ifp_types.Ctype.t;
  mutable registered : bool;  (** set by the pass *)
}

type program = {
  tenv : Ifp_types.Ctype.tenv;
  globals : global list;
  funcs : func list;
}

val func :
  ?instrumented:bool ->
  string ->
  (var * Ifp_types.Ctype.t) list ->
  Ifp_types.Ctype.t ->
  stmt list ->
  func

val global : string -> Ifp_types.Ctype.t -> global

val program :
  tenv:Ifp_types.Ctype.tenv -> globals:global list -> func list -> program

val find_func : program -> string -> func option
val find_global : program -> string -> global option

(** {1 Traversal}

    The shape of the tree, written once: which nodes have children, and
    in which order they are visited. Every pass that walks MiniC
    (instrumentation, resolution's scans, the fuzz shrinker) goes through
    these and spells out only the nodes it treats specially.

    Order is left to right everywhere: a node's children in source
    order (a [Gep]'s base, then its [S_index] expressions; a [Call]'s
    arguments), a statement's own expressions before its nested blocks,
    an [If]'s then-block before its else-block. The maps keep that order
    for the calls they make, even though OCaml evaluates constructor
    arguments right to left, so a map that counts the nodes it visits
    (the shrinker's positions) numbers them in the folds' pre-order. *)

val fold_children : ('a -> expr -> 'a) -> 'a -> expr -> 'a
(** Folds over the direct children of an expression. *)

val children : expr -> expr list
(** The direct children of an expression. *)

val map_children : (expr -> expr) -> expr -> expr
(** Rebuilds an expression from its mapped direct children; a leaf is
    returned as is. *)

val fold_stmt_exprs : ('a -> expr -> 'a) -> 'a -> stmt -> 'a
(** Folds over a statement's own expressions (an [If]'s or [While]'s
    condition, not its blocks), without descending into them. *)

val map_stmt : (expr -> expr) -> (stmt list -> stmt list) -> stmt -> stmt
(** [map_stmt f block s] rebuilds [s] with [f] applied to its own
    expressions and [block] to its nested blocks. *)

val fold_stmts : ('a -> stmt -> 'a) -> 'a -> stmt list -> 'a
(** Folds over every statement of a block in pre-order: a statement,
    then the statements of its nested blocks. *)

val fold_exprs : ('a -> expr -> 'a) -> 'a -> stmt list -> 'a
(** Folds over every expression node of a block in pre-order: the
    statements as {!fold_stmts} visits them, for each its own
    expressions, each node before its children. *)

(** {1 Structural equality}

    Deterministic deep equality used by the round-trip property
    ([parse (print p)] must equal [p]) and the fuzz shrinker. Floats
    compare by bit pattern; struct environments by their sorted
    bindings; the mutable [registered] flag (pass output, not program
    identity) is ignored. *)

val equal_expr : expr -> expr -> bool
val equal_program : program -> program -> bool

(** {1 Convenience constructors (frontend DSL)} *)

val i : int -> expr
val i64 : int64 -> expr
val v : string -> expr
val ( +: ) : expr -> expr -> expr
val ( -: ) : expr -> expr -> expr
val ( *: ) : expr -> expr -> expr
val ( /: ) : expr -> expr -> expr
val ( %: ) : expr -> expr -> expr
val ( <: ) : expr -> expr -> expr
val ( <=: ) : expr -> expr -> expr
val ( >: ) : expr -> expr -> expr
val ( >=: ) : expr -> expr -> expr
val ( ==: ) : expr -> expr -> expr
val ( <>: ) : expr -> expr -> expr
val ( &&: ) : expr -> expr -> expr
val ( ||: ) : expr -> expr -> expr
val null : Ifp_types.Ctype.t -> expr
(** Typed NULL pointer constant. *)

val idx : expr -> expr -> gstep list -> Ifp_types.Ctype.t -> expr
(** [idx base i steps pointee_ty] = [Gep (pointee_ty, base, S_index i :: steps)]. *)

val fld : string -> gstep
val at : expr -> gstep
