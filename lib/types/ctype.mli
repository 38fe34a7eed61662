(** C-like type language shared by the compiler, the metadata schemes and
    the layout-table generator.

    Structs are declared once in a {!tenv} and referenced by name so that
    recursive types (linked lists, trees) are expressible. Sizes and
    alignments follow the usual LP64 C rules: natural alignment for
    scalars, struct alignment is the max field alignment, struct size is
    rounded up to its alignment. *)

type t =
  | Void
  | I8
  | I16
  | I32
  | I64
  | F64  (** modelled as a 64-bit slot; arithmetic happens on floats *)
  | Ptr of t
  | Struct of string  (** reference to a named struct in the {!tenv} *)
  | Array of t * int

type field = { fname : string; fty : t }
type struct_def = { sname : string; fields : field list }

type tenv

val empty_tenv : tenv

val declare : tenv -> struct_def -> tenv
(** @raise Invalid_argument on duplicate name. *)

val lookup : tenv -> string -> struct_def
(** @raise Not_found if undeclared. *)

val bindings : tenv -> (string * struct_def) list
(** All declared structs, sorted by name (the canonical order used by
    printing and structural equality). *)

val sizeof : tenv -> t -> int
val alignof : tenv -> t -> int

val field_offset : tenv -> string -> string -> int * t
(** [field_offset env sname fname] is the byte offset and type of a
    field. @raise Not_found for unknown struct or field. *)

val field_type : tenv -> string -> string -> t
(** [field_type env sname fname] is the type of a field, without
    computing the struct's layout. @raise Not_found for unknown struct
    or field. *)

val fields_with_offsets : tenv -> string -> (field * int) list
(** All fields of a struct with their byte offsets, in declaration
    order. *)

val is_scalar : t -> bool
(** True for integer, float and pointer types. *)

val equal : t -> t -> bool

val pp : tenv -> Format.formatter -> t -> unit
val to_string : tenv -> t -> string
