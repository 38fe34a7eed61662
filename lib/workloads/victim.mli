(** The fault campaign's victims, [pointer_maze.minic] and
    [pointer_maze_freeing.minic] in this directory; their header
    comments give what each is built to meet. Like the workloads, they
    are checked and compiled in at build time, and each program is
    shared and immutable (instrumentation copies it), so concurrent
    campaign runs can use it. *)

val name : string
val program : unit -> Ifp_compiler.Ir.program

val temporal_name : string

val temporal_program : unit -> Ifp_compiler.Ir.program
(** The maze plus an epilogue that frees its whole heap, for the
    temporal fault classes. *)
