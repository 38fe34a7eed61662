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
    [__print_f64 : f64 -> void], [__abort : void -> void]. *)

val check_program : Ir.program -> unit
(** @raise Type_error with a location-ish message on the first error. *)

val type_of_gep :
  Ifp_types.Ctype.tenv ->
  Ifp_types.Ctype.t ->
  Ir.gstep list ->
  Ifp_types.Ctype.t
(** Resulting pointee type of a Gep over a pointee type; raises
    {!Type_error} for invalid paths. Shared with the instrumentation
    pass and the VM. *)

val layout_path :
  Ifp_types.Ctype.tenv -> Ifp_types.Ctype.t -> Ir.gstep list -> Ifp_types.Layout.path
(** The {!Ifp_types.Layout.path} corresponding to a Gep: [S_field]
    becomes [Field]; [S_index] becomes [Index] when it indexes an
    array-typed subobject and is dropped when it is leading pointer
    arithmetic (which does not change the subobject). *)
