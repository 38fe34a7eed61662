(** The campaign engine: runs a batch of {!Job.t}s across a
    {!Pool.run} of worker domains, with per-job result caching
    ({!Cache}), a per-job wall-clock watchdog, graceful shutdown, fault
    isolation and {!Events} JSONL observability.

    {2 Fault model}

    Guest-program failures — traps, aborts, and runaway programs cut off
    by the VM's [max_cycles] budget — are {e results}, not engine
    failures: the job completes [Done] and the reporting layer decides
    what a trapped variant means (for Juliet bad cases it is the expected
    outcome; for benchmark rows it becomes a status annotation). An
    engine-level failure is an OCaml exception escaping the job — from
    the runner (a simulator bug, out-of-memory, an injected fault in
    tests) or from the [on_job_done] hook: the job is marked {!Failed}
    with the exception's text and a [job_failed] event, leaving every
    other job of the campaign unaffected. Jobs are deterministic, so a
    failed job is not retried in-process; it is not cached either, so
    re-running the campaign runs it again. A job that exceeds
    [job_timeout] wall-clock seconds is marked {!Timed_out}; its worker
    domain is abandoned, not killed — OCaml domains cannot be cancelled
    — so it keeps a core busy until the VM cycle budget trips, but the
    campaign itself proceeds. Corrupted cache entries are quarantined
    ({!Cache.find}) and surfaced as [cache_corrupt] (or
    [cache_crc_mismatch] when the CRC framing caught a torn write)
    events; the job then runs as a normal miss.

    {2 Resume}

    The result cache is the only durable store. A job's result is
    renamed into place in the cache {e before} the [on_job_done] hook
    fires, so a process death at any instant loses at most the jobs
    still running. Resuming a killed or interrupted campaign is
    re-running the same command against the same cache: finished jobs
    come back as cache hits and only the rest run. With [?stop], a
    polled cancellation flag (typically set from a SIGINT/SIGTERM
    handler) drains the campaign gracefully: jobs already started run
    to completion and are cached; jobs not yet started complete as
    {!Skipped}, and the final event is [campaign_interrupted] instead of
    [campaign_end].

    {2 Process-exit contract}

    After a campaign with {!Timed_out} jobs, the abandoned watchdog
    domains are still running (they cannot be cancelled) and may keep
    running until their VM cycle budget trips. A caller that has flushed
    its outputs (event log, aggregate files) must therefore terminate
    via [Stdlib.exit] — which runs [at_exit] and then ends the process
    immediately — rather than returning from the program and leaving
    the runtime (or any landing pad that joins domains) to wait on work
    that may take arbitrarily long. The campaign binaries all end with
    an explicit [Stdlib.exit] ({!Cli.finish}).

    {2 Determinism}

    Each job constructs its own VM state from scratch inside the runner
    (there is no shared mutable state in [lib/vm]; the workload PRNG
    [__seed] is a guest global living in per-run simulated memory), and
    outcomes are returned in submission order, so aggregation over the
    outcome array is independent of worker count and scheduling.
    [run ~workers:8 jobs] and [run ~workers:1 jobs] produce equal
    outcome data (modulo [elapsed] timings), and an interrupted campaign
    re-run against its cache converges to the same outcome data as an
    uninterrupted one — the chaos tests assert this byte-for-byte on the
    rendered tables. *)

type status =
  | Done
  | Failed of string  (** the text of the exception that escaped *)
  | Timed_out
  | Skipped
      (** not run: the campaign was interrupted before the job started *)

type outcome = {
  job : Job.t;
  digest : string;
  status : status;
  result : Ifp_vm.Vm.result option;  (** [Some] iff [status = Done] *)
  from_cache : bool;
  elapsed : float;  (** seconds, including the cache probe *)
}

type stats = {
  jobs : int;
  completed : int;
  failed : int;
  timed_out : int;
  skipped : int;  (** jobs not started due to graceful shutdown *)
  cache_hits : int;
  workers : int;
  wall_seconds : float;
  interrupted : bool;  (** the [stop] flag fired during this run *)
}

val default_runner : Job.t -> Ifp_vm.Vm.result
(** [Engines.run ~config:job.config job.prog] — the [runner] default.
    The engine named by [config.engine] executes the job; since engines
    are observationally identical and the field is excluded from
    {!Job.config_fingerprint}, cached results remain valid across
    engine choices. *)

val run :
  ?workers:int ->
  ?cache:Cache.t ->
  ?log:Events.t ->
  ?job_timeout:float ->
  ?stop:(unit -> bool) ->
  ?on_job_done:(outcome -> unit) ->
  ?runner:(Job.t -> Ifp_vm.Vm.result) ->
  Job.t list ->
  outcome array * stats
(** Runs the batch. Defaults: [workers = 1], no cache, no log, no
    [job_timeout] (jobs may run forever), [stop] never fires,
    [on_job_done] is a no-op, [runner] = {!default_runner}.

    [on_job_done] fires once per job that completes (run or cache hit)
    or times out — not for failures or skips — after a fresh result has
    been renamed into place in the cache; it runs on the worker domain
    that finished the job. The chaos harness ({!Chaos.arm_kill}) uses it
    to crash the process at a seeded point. An exception it raises fails
    that job like a runner exception would.

    Outcomes are in submission order. Events emitted: [campaign_start],
    [job_start], [job_finish], [cache_hit], [cache_corrupt],
    [cache_crc_mismatch], [job_timeout], [job_failed], and finally
    [campaign_end] — or [campaign_interrupted] when [stop] fired. *)

val stats_json : stats -> (string * Events.json) list
(** The stats record as JSON fields (used both for the [campaign_end] /
    [campaign_interrupted] event and for the end-of-run aggregate
    file). *)
