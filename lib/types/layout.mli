(** Layout tables (paper §3.4, Fig. 9).

    A layout table flattens the subobject tree of a type into an array of
    elements [{parent; base; bound; elem_size}]. Element 0 always stands
    for the whole object. For an element whose parent is [0] — or more
    generally whose offsets were {e flattened} — [base]/[bound] are byte
    offsets from the parent element's start; for children of
    array-of-struct elements they are offsets from the start of {e one
    array element}, and the narrowing hardware snaps the current address
    to the element stride (paper Fig. 9c).

    Flattening rule (paper: "if a type hierarchy only contains struct
    members or arrays of elementary type, then it can be flattened"):
    every subobject's parent is its nearest ancestor that is an
    array-of-aggregate element, or element 0 when there is none, so the
    common case needs a single table lookup.

    Subobject indices assigned here are the values the compiler loads
    into the pointer tag's subobject-index field with [ifpidx]. *)

type element = {
  parent : int;  (** index of the parent element; element 0 is its own parent *)
  base : int;  (** byte offset of the subobject from the parent frame *)
  bound : int;  (** one-past-end byte offset from the parent frame *)
  elem_size : int;
      (** stride: size of one array element for arrays, else [bound - base] *)
}

type step =
  | Field of string  (** select a struct member *)
  | Index  (** move into an array (element index is dynamic) *)

type path = step list

type t

val build : Ctype.tenv -> Ctype.t -> t
(** Build the table for a root type. Scalars and scalar arrays get a
    1-element table (just the object element). *)

val elements : t -> element array
val length : t -> int

val get : t -> int -> element
(** @raise Invalid_argument when out of range. *)

val index_of_path : t -> path -> int option
(** The subobject index a pointer obtained by following [path] from the
    object base should carry; [None] if the path is invalid for the type.
    [Some 0] means "whole object". *)

val narrow :
  t ->
  obj_base:int64 ->
  obj_size:int ->
  addr:int64 ->
  index:int ->
  (int64 * int64) option
(** [narrow t ~obj_base ~obj_size ~addr ~index] executes the recursive
    subobject-bounds computation of Fig. 9c in software: element 0's
    bounds are the {e actual} object bounds [\[obj_base,
    obj_base+obj_size)] (which may span several copies of the root type
    for array allocations), children of an element are located by
    snapping [addr] to the parent's [elem_size] stride. Returns the
    absolute [(lo, hi)] subobject bounds; [None] when [index] is out of
    table range or [addr] lies outside the object (narrowing is then
    impossible and the caller falls back to object bounds).

    This function is the reference model for the hardware layout-table
    walker. *)

val walk_steps : t -> index:int -> int
(** Number of table elements the hardware walker fetches to narrow to
    [index] (the cost model charges per fetched element). *)

val pp : Format.formatter -> t -> unit
