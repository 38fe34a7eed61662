(** The campaign job model.

    A job is one [workload × Vm.config] cell of the evaluation matrix: a
    lowered IR program plus the VM configuration to run it under. Jobs
    are content-addressed — {!digest} hashes the pretty-printed program,
    a stable fingerprint of the configuration, and {!model_digest} (the
    cost-model and ISA constants) — so the on-disk result cache is
    automatically invalidated whenever the program, the configuration or
    the simulator's cost model changes. *)

type t = {
  name : string;
      (** unique human-readable id within one campaign, e.g.
          ["em3d/subheap"] or ["juliet/overflow-stack-direct/bad/wrapped"] *)
  group : string;  (** grouping key for aggregation, e.g. the workload name *)
  variant : string;  (** configuration label, e.g. ["subheap-np"] *)
  config : Ifp_vm.Vm.config;
  prog : Ifp_compiler.Ir.program;
  salt : string;
      (** extra digest input (default [""]) distinguishing jobs whose
          runner computes something other than a plain [Vm.run] of
          [prog × config] — e.g. the fuzz driver's oracle-battery jobs,
          which must never share cache entries with ordinary runs of the
          same program *)
}

val make :
  ?salt:string ->
  name:string ->
  group:string ->
  variant:string ->
  config:Ifp_vm.Vm.config ->
  Ifp_compiler.Ir.program ->
  t

val config_fingerprint : Ifp_vm.Vm.config -> string
(** Stable, human-readable rendering of every configuration field. Two
    configs have equal fingerprints iff they are semantically equal. *)

val model_digest : string
(** Hex digest over the VM cost-model constants and the ISA tag-layout
    constants. Changing either (e.g. retuning {!Ifp_vm.Cost}) changes
    every job digest and thus invalidates all cached results. *)

val digest : t -> string
(** Hex content digest of the job: program text + config fingerprint +
    [salt] + {!model_digest}. Does {e not} include
    [name]/[group]/[variant], so identical work submitted under
    different labels shares cache entries. *)
