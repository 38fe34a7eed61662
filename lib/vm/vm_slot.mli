(** The slot-resolved interpreter: a direct-recursion evaluator over
    {!Ifp_compiler.Resolve} output and the {!Rt} primitives. Selected by
    [engine = Eng_vm]; callers go through {!Vm.run}. *)

val run : config:Rt.config -> Rt.image -> Rt.result
(** The [Eng_vm] arm of {!Vm.run_image}, which carries the contract. *)
