(** The closure-compiled engine (third generation). {!Compile} lowers
    {!Ifp_compiler.Resolve} output to trees of OCaml closures — one
    closure per node, successors pre-linked, hot tagged-pointer
    sequences fused into superinstructions, every load and store on one
    staged access path whether or not a fault injector is armed — and
    [run] executes main's compiled body. Each IR node has exactly one
    compiled form.

    The production engine: [Rt.default_config] selects it, and
    {!Vm.run} dispatches here for [Eng_closure]. Observationally
    identical to the slot interpreter and {!Vm_ref}: same outcome,
    every counter, traces and output, bit for bit. Only
    host-side wall time differs; [sh perfbench/run.sh --trace 1] times
    each engine ([vm.engine_s.*]). *)

val run : config:Rt.config -> Rt.image -> Rt.result
(** The [Eng_closure] arm of {!Vm.run_image}, which carries the
    contract (per-call state — safe to call concurrently from multiple
    domains, on a shared image). *)
