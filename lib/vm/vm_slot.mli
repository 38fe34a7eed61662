(** The slot-resolved interpreter: a direct-recursion evaluator over
    {!Ifp_compiler.Resolve} output and the {!Rt} primitives. Selected by
    [engine = Eng_vm]; callers go through {!Vm.run}. *)

val run : ?config:Rt.config -> Ifp_compiler.Ir.program -> Rt.result
(** The [Eng_vm] arm of {!Vm.run}, which carries the contract. *)
