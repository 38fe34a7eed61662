(** Dynamic event counters — everything Table 4, Fig. 10, Fig. 11 and
    Fig. 12 of the paper are computed from. *)

type t = {
  mutable base_instrs : int;  (** non-IFP dynamic instructions *)
  ifp : int array;  (** per {!Ifp_isa.Insn.kind} dynamic counts *)
  mutable cycles : int;
  mutable loads : int;
  mutable stores : int;
  mutable implicit_checks : int;
  (* promote breakdown (Table 4 "valid promote") *)
  mutable promotes_valid : int;  (** accessed object metadata *)
  mutable promotes_null : int;
  mutable promotes_legacy : int;
  mutable promotes_poisoned : int;
  mutable promotes_invalid_meta : int;
  mutable promotes_subobj : int;  (** operand had a non-zero subobject index *)
  mutable narrows_ok : int;
  mutable narrows_failed : int;
  (* object instrumentation (Table 4 left columns) *)
  mutable global_objs : int;
  mutable global_objs_layout : int;
  mutable local_objs : int;
  mutable local_objs_layout : int;
  mutable heap_objs : int;
  mutable heap_objs_layout : int;
}

val create : unit -> t
val kind_index : Ifp_isa.Insn.kind -> int
val add_ifp : t -> Ifp_isa.Insn.kind -> int -> unit
val ifp_count : t -> Ifp_isa.Insn.kind -> int
val total_instrs : t -> int
val promotes_total : t -> int
val pp : Format.formatter -> t -> unit
