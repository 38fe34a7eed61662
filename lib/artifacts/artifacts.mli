(** The paper's evaluation (§5) as typed artifacts: every experiment
    target's job matrix, and the builders that turn the campaign's
    results into {!Artifact.t}s with their claims.

    Targets: [table2], [table4], [fig10], [fig11], [fig12], [fig13],
    [baselines], [extensions], [juliet] ([all] is these nine), and
    [faults] and [temporal] outside [all]. *)

val targets : string list
(** Every target, [all] first. *)

val jobs : seeds:int -> string -> Ifp_campaign.Job.t list
(** The target's campaign jobs, each name once. [seeds] is the number
    of fault plans per class and variant ([faults] only). *)

val fault_column : fired:bool -> Ifp_faultinject.Verdict.t -> string
(** The column of the [faults] tables a faulted run lands in:
    [detected], [other-trap], [silent], [benign], [not-fired] or
    [aborted]. [fired] is whether the fault landed: a run that finished
    without it is [not-fired], whatever its verdict. *)

val temporal_workloads : string list
(** The workloads of the [temporal] overhead table, each with a claim
    that its runs agree on the checksum. *)

val build :
  seeds:int -> string -> (string -> Ifp_vm.Vm.result option) -> Artifact.t list
(** [build ~seeds target result] builds the target's artifacts in print
    order from [result], which maps a job name of {!jobs} to its result,
    or [None] when the job failed: a missing row or Juliet result shows
    as an aborted run, a missing fault run in the [failed] column.
    Raises [Failure] when a fault campaign's uninjected golden run is
    missing. *)
