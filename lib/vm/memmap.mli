(** Virtual-address-space layout used by the VM (all regions fit in the
    48-bit address space; the heap base is naturally aligned for the
    subheap buddy arena). *)

val globals_base : int64
val globals_size : int
val layout_region_base : int64
val layout_region_size : int
val global_table_base : int64
val global_table_entries : int
val heap_base : int64
val heap_size_log2 : int
val stack_top : int64
val stack_size : int

val max_call_depth : int
(** Guest call-depth bound. A call that declares no locals moves no
    simulated [sp], so the stack region alone cannot stop unbounded
    recursion; every engine aborts with [Stack_overflow] when a call
    would nest deeper than this. 64 Ki frames is far above any
    terminating workload and keeps each engine's host recursion well
    inside OCaml's default stack limit. *)
