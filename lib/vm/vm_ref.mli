(** Reference interpreter: the name-keyed tree walker that the
    slot-resolved {!Vm} replaced.

    Functionally identical to {!Vm.run} — same cost model, counters,
    traces, outcomes — but resolves every variable access through
    string-keyed hash tables and recomputes sizes/offsets/layout indices
    per access. It exists as the executable specification the fast
    interpreter is differentially tested against (test_vm,
    test_engines); it is not used by the experiment drivers. *)

val run : ?config:Vm.config -> Ifp_compiler.Ir.program -> Vm.result
(** Same contract as {!Vm.run}, including the concurrency guarantees. *)
