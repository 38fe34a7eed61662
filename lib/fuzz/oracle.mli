(** The differential oracles: the fuzz campaign's battery, and the one
    harness every engine- and config-agreement test goes through.

    Given one (generated or replayed) well-typed program, {!check} runs
    the full battery and returns every disagreement found:

    - oracle [engines] ({!agree}) — for each configuration of {!configs},
      every engine of {!Ifp_vm.Engines.all}, run through
      {!Ifp_vm.Vm.run}, must produce the same observable signature
      ({!result_sig}: outcome, every counter, IFP trace, cache
      statistics, footprint, output, fault injections) as the reference engine, the head
      of that list;
    - oracle [equivalence] ({!equivalence}) — on a well-defined program
      (baseline run finishes), every IFP configuration must finish with
      the same exit value and the same output as baseline:
      instrumentation may change costs, never behavior;
    - oracle [faults] — an armed {!Ifp_faultinject} plan of each
      defended class against the subheap configuration must never be
      an {!Ifp_faultinject.Verdict.Silent} run whose fault landed: the
      defense either detects the corruption, aborts, or the fault was
      never consumed.

    A baseline run that does not finish is reported as oracle
    [wellformed] — a generator bug surfaced through the same pipeline.

    Each failure carries a stable [oracle/site] key used for
    counterexample dedup and for the shrinker's
    "still the same failure" predicate. *)

type failure = {
  oracle : string;  (** [engines] | [equivalence] | [faults] | [wellformed] *)
  site : string;  (** config, config/engine, or fault class *)
  detail : string;  (** first divergent signature lines, outcome, ... *)
}

val configs : (string * Ifp_vm.Vm.config) list
(** baseline, ifp-subheap (tracing), ifp-wrapped — each with a generous
    fixed cycle budget so instrumentation overhead can never turn a
    well-defined program into a budget abort. *)

val defended : Ifp_faultinject.Fault.fault_class list
(** Every class except [Heap_smash] (data smashes are out of the
    architectural detection contract) and the temporal classes
    ([Uaf_use], [Double_free] — a spatial-only configuration is not
    contracted to catch a legitimately-freed record; they get their own
    battery in {!check_temporal}). Exactly the pre-temporal list, so
    cached battery verdicts stay valid. *)

val temporal_defended : Ifp_faultinject.Fault.fault_class list
(** [[Uaf_use; Double_free]] — the classes {!check_temporal} arms. *)

val temporal_configs : (string * Ifp_vm.Vm.config) list
(** The IFP configs of {!configs} with [temporal = true]
    (ifp-subheap-t, ifp-wrapped-t). *)

val result_sig : Ifp_vm.Vm.result -> string
(** Every observable field of a run — including the corruptions an armed
    fault injector performed — folded into a line-oriented string; two
    runs are equivalent iff their signatures are equal. *)

val line_diff : string -> string -> (string option * string option) list
(** Every line position, in order, where two texts (two {!result_sig}s)
    differ, as (left, right); [None] is a side that has already ended.
    [[]] iff the texts are equal. *)

val agree :
  string ->
  Ifp_vm.Vm.config ->
  Ifp_compiler.Ir.program ->
  failure list * Ifp_vm.Vm.result
(** [agree name config prog] is oracle [engines] for one configuration:
    prepares [prog] once ({!Ifp_vm.Vm.prepare}) and runs the image under
    [config] on every engine of
    {!Ifp_vm.Engines.all} (whatever engine [config] names) and returns
    one failure, site [name/engine], per engine whose {!result_sig}
    differs from the reference's, together with the reference result. *)

val equivalence :
  baseline:Ifp_vm.Vm.result -> (string * Ifp_vm.Vm.result) list -> failure list
(** Oracle [equivalence]: when [baseline] finishes, one failure (site:
    the config name) per named result that does not finish with the same
    exit value and output; otherwise the single [wellformed/baseline]
    failure. The baseline result itself may appear in the list. *)

val failure_key : failure -> string
(** ["oracle/site"] — the dedup and shrink-preservation key. *)

val to_line : failure -> string
(** One-line rendering (detail escaped); inverse of {!of_line}. *)

val of_line : string -> failure option

val check :
  ?fault_seed:int64 ->
  Ifp_compiler.Ir.program ->
  failure list * Ifp_vm.Vm.result
(** Runs the battery: {!agree} on each of {!configs}, {!equivalence}
    across them, and one armed plan per defended class (plan seeds
    derived from [fault_seed], default 1). The battery prepares [prog]
    once per front-end key ({!Ifp_vm.Vm.preparer}): one baseline image,
    and one IFP image every IFP run shares. Also returns the nominal
    ifp-subheap result (the golden run) so campaign runners can reuse
    it. Deterministic in [program x fault_seed]. *)

val check_temporal :
  ?fault_seed:int64 ->
  ?expect_fault:bool ->
  Ifp_compiler.Ir.program ->
  failure list
(** The temporal battery, over {!temporal_configs}, all sharing one
    prepared IFP image:

    - oracle [engines] — {!agree} under temporal configurations too;
    - with [expect_fault:true] (a program generated with
      {!Gen.knobs}[.temporal]): oracle [temporal] — the run must end in
      a temporal trap ([Use_after_free] / [Write_to_freed] /
      [Double_free]), never finish and never trap for a spatial reason;
    - with [expect_fault:false] (default, a safe program): the run must
      finish, and one armed plan per {!temporal_defended} class must
      never be [Silent] with its fault landed (oracle [temporal-faults]) —
      temporal-mode IFP either detects the injected free, aborts, or the
      trigger never fired. *)
