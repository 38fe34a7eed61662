(** Slot resolution: the lowering pass between {!Instrument} and the VM.

    A single walk over each function interns variable and stack-local
    names to dense integer slots, binds call targets to function
    indices, resolves globals to positions in a flat table, and
    precomputes everything the interpreter used to derive per access:
    scalar sizes, struct field offsets, gep element strides and the
    static subobject-index delta (the [ifpidx] immediate), malloc size
    scales and layout multiplicity, and cast/let coercion kinds.

    {b Input contract.} The program passed [Typecheck.check_program]
    before it was instrumented ([Vm.prepare], the one way into an
    engine, checks it first). So every global and function name
    is declared once and resolves, every gep step is well-formed, every
    call has its callee's arity and every [Let] binds a scalar: the
    lowered program has no node that only aborts. An input that breaks
    the contract raises [Invalid_argument] naming the offending name or
    step.

    The pass is purely structural and must preserve observable
    behaviour bit-for-bit. Typecheck is flow-insensitive, so a variable
    or stack local may be read on a path that never bound it
    ([if c { let x = 1; } return x;] is accepted): such names keep their
    slots, and the VM aborts with the reference message on first touch
    via an unbound sentinel. *)

module Ctype = Ifp_types.Ctype

type vclass = Cls_int | Cls_f64 | Cls_ptr
(** Scalar class of a memory access: how raw bytes become a value. *)

type cast_kind =
  | Cast_ptr
  | Cast_f64
  | Cast_int of int  (** sign-extension width: [max 1 (sizeof target)] *)

type coerce_kind = K_i8 | K_i16 | K_i32 | K_i64 | K_f64 | K_ptr

type call_target =
  | C_func of int  (** index into {!program.funcs} *)
  | C_print_i64
  | C_print_f64
  | C_abort

type gstep =
  | Rs_field of { off : int; fsize : int }
  | Rs_index of { esize : int; idx : expr }

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
      scale : int;
      count : expr;
      cty : Ctype.t option;
      layout_multi : bool;
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
  params : int list;  (** var slots of the parameters, in order *)
  n_vars : int;  (** frame value-array length *)
  var_names : string array;  (** slot -> source name, diagnostics only *)
  n_locals : int;  (** frame stack-local array length *)
  local_names : string array;
  body : stmt list;
  instrumented : bool;
  has_calls : bool;  (** spill cost model input *)
  ptr_regs : int;
}

type rglobal = {
  gname : string;
  gty : Ctype.t;
  gsize : int;  (** raw [sizeof]; the VM allocates [max 1 gsize] bytes *)
  gregistered : bool;
}

type program = {
  tenv : Ctype.tenv;
  globals : rglobal array;
  funcs : func array;
  main : int;  (** index into [funcs], or [-1] when absent *)
  types : Ctype.t array;
      (** distinct local-declaration types; [Decl_local.tyid] indexes
          this table, which sizes the VM's per-run layout-pointer
          cache *)
  n_sites : int;
      (** number of site ids handed out: every {!expr.Gep},
          {!expr.Ifp_promote} and {!stmt.Ifp_register_local} node carries
          a distinct [site] in [\[0, n_sites)]. Sites are assigned by a
          single program-order counter during the deterministic
          resolution walk, so re-resolving the same program yields the
          same ids at the same nodes, and digests of resolved programs
          stay reproducible. *)
}

val run : Ir.program -> program
(** Resolve an (instrumented) program that met the input contract above;
    raises [Invalid_argument] on one that does not. The input is not
    mutated and may
    be shared across concurrent resolutions; the pass is deterministic —
    resolving the same program twice yields structurally equal output,
    including slot assignment and site ids. *)
