(** Multi-variant evaluation of one workload: the five configurations the
    paper reports (baseline, subheap, wrapped, and the two no-promote
    controls), plus the derived overhead numbers that make up a row of
    Table 4 and of Figures 10–12. *)

type row = {
  name : string;
  baseline : Ifp_vm.Vm.result;
  subheap : Ifp_vm.Vm.result;
  wrapped : Ifp_vm.Vm.result;
  subheap_np : Ifp_vm.Vm.result;  (** subheap allocator, promote as nop *)
  wrapped_np : Ifp_vm.Vm.result;
}

val variants : (string * Ifp_vm.Vm.config) list
(** The five standard configurations of a row, in reporting order:
    [baseline], [subheap], [wrapped], [subheap-np], [wrapped-np]. *)

val configs : (string * Ifp_vm.Vm.config) list
(** Every configuration the command-line tools know by name: {!variants},
    then [mixed], [no-narrowing] (subheap with the layout walker off)
    and [infer-types] (subheap with allocation-wrapper type inference). *)

val of_results : name:string -> lookup:(string -> Ifp_vm.Vm.result) -> row
(** Assembles a row from per-variant results, e.g. ones computed by the
    campaign engine. [lookup] is applied to each name in {!variants}. *)

val aborted_result : string -> Ifp_vm.Vm.result
(** A zeroed placeholder result with [Aborted (Host_failure msg)]
    outcome — used to keep a row renderable when a variant's job failed
    at the engine level (the failure stays visible via
    {!check_outcomes} / {!status_string}). *)

val evaluate : name:string -> Ifp_compiler.Ir.program -> row
(** Runs the workload under all five configurations, serially in the
    calling domain. *)

val runtime_overhead : baseline:Ifp_vm.Vm.result -> Ifp_vm.Vm.result -> float
(** Cycle-count ratio ([1.12] = +12%). *)

val instr_overhead : baseline:Ifp_vm.Vm.result -> Ifp_vm.Vm.result -> float
(** Dynamic-instruction-count ratio (Table 4 right columns). *)

val memory_overhead : baseline:Ifp_vm.Vm.result -> Ifp_vm.Vm.result -> float
(** Footprint ratio (Fig. 12). *)

val check_outcomes : row -> (string * string) list
(** Configurations that did not finish cleanly, or finished with a
    return value other than baseline's, as (variant, reason) — expected
    to be empty for the benchmark workloads. *)

val status_string : row -> string
(** ["ok"], or a compact comma-separated summary of the variants that
    {!check_outcomes} reports, e.g. ["wrapped(trap),subheap-np(checksum)"]
    — the status column of the report tables, which so gates semantic
    preservation. Full reasons are available from {!check_outcomes}. *)
