(** Engine names and the engine list. All engines are observationally
    identical; see {!Vm.engine}. Dispatch on [config.engine] is
    {!Vm.run}'s. *)

val of_string : string -> Vm.engine option
(** ["vm"], ["vm-ref"], ["closure"]; [None] for anything else (CLI
    callers turn that into a usage message). *)

val to_string : Vm.engine -> string

val all : Vm.engine list
(** Every engine, in presentation order: vm, vm-ref, closure. The head
    is the reference engine of agreement checks. *)

val names : string list
(** [List.map to_string all] — for usage strings. *)

val run : ?config:Vm.config -> Ifp_compiler.Ir.program -> Vm.result
(** {!Vm.run} (default config: the closure engine), kept as an alias
    for the benchmark harness. *)
