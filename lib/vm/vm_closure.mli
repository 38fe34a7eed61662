(** The closure-compiled engine (third generation). {!Compile} lowers
    {!Ifp_compiler.Resolve} output to trees of OCaml closures — one
    closure per node, successors pre-linked, hot tagged-pointer
    sequences fused into superinstructions, metadata layout walks
    served from per-site inline caches — and [run] executes main's
    compiled body. Each IR node has exactly one compiled form.

    Observationally identical to {!Vm.run} and {!Vm_ref.run}: same
    outcome, every counter, traces and output, bit for bit. Only
    host-side wall time differs; [sh perfbench/run.sh --trace 1] times
    each engine ([vm.engine_s.*]). *)

val run : ?config:Vm.config -> Ifp_compiler.Ir.program -> Vm.result
(** Same contract as {!Vm.run} (typecheck, instrument, execute,
    per-call state — safe to call concurrently from multiple domains). *)
