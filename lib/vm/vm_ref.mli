(** Reference interpreter: the name-keyed tree walker that the
    slot-resolved interpreter ([Vm_slot]) replaced.

    Functionally identical to the other engines — same cost model, counters,
    traces, outcomes — but resolves every variable access through
    string-keyed hash tables and recomputes sizes/offsets/layout indices
    per access. It exists as the executable specification the fast
    interpreter is differentially tested against (test_vm,
    test_engines); {!Vm.run} dispatches here only for [Eng_ref], which
    no named config selects. *)

val run : config:Rt.config -> Rt.image -> Rt.result
(** The [Eng_ref] arm of {!Vm.run_image}, which carries the contract,
    including the concurrency guarantees. *)
