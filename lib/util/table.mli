(** Plain-text table rendering for experiment reports. *)

val render : header:string list -> string list list -> string
(** [render ~header rows] renders an ASCII table: the first column
    left-aligned, the rest right-aligned. *)
