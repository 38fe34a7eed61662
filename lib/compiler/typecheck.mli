(** Static checker for MiniC programs.

    Catches ill-typed workloads before they run: unknown
    variables/fields, malformed {!Ir.Gep} paths, loads/stores of
    non-scalar types, arity mismatches, [break] outside loops, etc.
    Integer types are mutually convertible (C-style); pointer types must
    match exactly, via an explicit {!Ir.Cast}, or through [Ptr Void]
    (which is compatible with every pointer type, as in C). *)

exception Type_error of string

val max_object_size : int
(** The largest object size in bytes, the size of the VM's heap arena.
    A declared struct, global, stack local or [malloc] type, or an
    array type a [Gep] indexes through a pointer, whose size exceeds it,
    or whose size computation would overflow, is a {!Type_error} naming
    the declaration. *)

val builtin_sig : string -> (Ifp_types.Ctype.t list * Ifp_types.Ctype.t) option
(** Host builtins callable from MiniC: [__print_i64 : i64 -> void],
    [__print_f64 : f64 -> void], [__abort : void -> void]. Their names
    are taken: a function declared with one is a duplicate function. *)

val check_program : Ir.program -> unit
(** @raise Type_error with a location-ish message on the first error. *)

(** {1 The gep step rule}

    A [Gep]'s steps walk its pointee type: a field step selects a struct
    member; an index on an array-typed subobject selects an element; an
    index on anything else is pointer arithmetic when it leads the path
    and an error after it. {!fold_gep} is that rule, written once; the
    type checker, {!layout_path}, the instrumentation pass's static-safety
    check and {!Resolve}'s lowering derive from it, each with its own
    failure mode. *)

type gep_step =
  | Field of { sname : string; field : string; fty : Ifp_types.Ctype.t }
      (** a member of struct [sname], of type [fty] *)
  | Elem of { idx : Ir.expr; elt : Ifp_types.Ctype.t; len : int }
      (** an element of an array of [len] [elt]s *)
  | Arith of { idx : Ir.expr; ty : Ifp_types.Ctype.t }
      (** leading pointer arithmetic in units of [ty] *)

type gep_fault =
  | No_field of { sname : string; field : string }
      (** the struct is undeclared or has no such field *)
  | Not_struct of { field : string; ty : Ifp_types.Ctype.t }
  | Not_array of { idx : Ir.expr; ty : Ifp_types.Ctype.t }
      (** an index after the first step, on a non-array [ty] *)

val fold_gep :
  Ifp_types.Ctype.tenv ->
  Ifp_types.Ctype.t ->
  Ir.gstep list ->
  ('a -> gep_step -> 'a) ->
  'a ->
  ('a, 'a * gep_fault) result
(** [fold_gep tenv pointee steps f init] folds [f] over the steps of a
    [Gep] with pointee type [pointee], left to right. It stops at the
    first step the rule rejects, with the accumulator so far. *)

val layout_path :
  Ifp_types.Ctype.tenv -> Ifp_types.Ctype.t -> Ir.gstep list -> Ifp_types.Layout.path
(** The {!Ifp_types.Layout.path} corresponding to a Gep: [S_field]
    becomes [Field]; [S_index] becomes [Index] when it indexes an
    array-typed subobject and is dropped when it is leading pointer
    arithmetic (which does not change the subobject).
    @raise Type_error for an invalid path, and [Not_found] for a missing
    field. *)
