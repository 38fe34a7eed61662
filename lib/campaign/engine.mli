(** The campaign engine: runs a batch of {!Job.t}s across a
    {!Pool.run} of worker domains, with per-job result caching
    ({!Cache}), a crash-safe write-ahead journal ({!Journal}), bounded
    retries with deterministic backoff, a per-job wall-clock watchdog,
    graceful shutdown, fault isolation and {!Events} JSONL
    observability.

    {2 Fault model}

    Guest-program failures — traps, aborts, and runaway programs cut off
    by the VM's [max_cycles] budget — are {e results}, not engine
    failures: the job completes [Done] and the reporting layer decides
    what a trapped variant means (for Juliet bad cases it is the expected
    outcome; for benchmark rows it becomes a status annotation). An
    engine-level failure is an OCaml exception escaping the runner (a
    simulator bug, out-of-memory, an injected fault in tests): the job is
    retried up to [retries] extra times — sleeping a deterministic
    exponential backoff with seeded jitter between attempts — and then
    marked {!Failed}, leaving every other job of the campaign unaffected.
    A job that exceeds [job_timeout] wall-clock seconds is marked
    {!Timed_out} without retry (a runaway job would only hang the
    watchdog again); its worker domain is abandoned, not killed — OCaml
    domains cannot be cancelled — so it keeps a core busy until the VM
    cycle budget trips, but the campaign itself proceeds. Corrupted
    cache entries are quarantined ({!Cache.lookup}) and surfaced as
    [cache_corrupt] (or [cache_crc_mismatch] when the CRC framing caught
    a torn write) events; the job then runs as a normal miss.

    {2 Crash consistency}

    With [?journal], every completion (including cache hits) is appended
    to a {!Journal} — framed, CRC32-checksummed, flushed — {e before}
    the [on_job_done] hook fires, so a process death at any instant
    loses at most the record being written, and that record is detected
    and dropped on replay. On startup, journaled entries are
    {e authoritative}: a job whose digest is already in the journal is
    served from it (a [journal_replay] event; [from_journal] outcome),
    ahead of the cache and without re-running — this is what
    [--resume] builds on. With [?stop], a polled cancellation flag
    (typically set from a SIGINT/SIGTERM handler) drains the campaign
    gracefully: jobs already started run to completion and are
    journaled; jobs not yet started complete as {!Skipped} (never
    journaled, so resume re-runs exactly those), and the final event is
    [campaign_interrupted] instead of [campaign_end].

    {2 Process-exit contract}

    After a campaign with {!Timed_out} jobs, the abandoned watchdog
    domains are still running (they cannot be cancelled) and may keep
    running until their VM cycle budget trips. A caller that has flushed
    its outputs (journal, event log, aggregate files) must therefore
    terminate via [Stdlib.exit] — which runs [at_exit] and then ends the
    process immediately — rather than returning from the program and
    leaving the runtime (or any landing pad that joins domains) to wait
    on work that may take arbitrarily long. The campaign binaries all
    end with an explicit [Stdlib.exit].

    {2 Determinism}

    Each job constructs its own VM state from scratch inside the runner
    (there is no shared mutable state in [lib/vm]; the workload PRNG
    [__seed] is a guest global living in per-run simulated memory), and
    outcomes are collected into a slot array indexed by submission order,
    so aggregation over the outcome array is independent of worker count
    and scheduling. [run ~workers:8 jobs] and [run ~workers:1 jobs]
    produce equal outcome data (modulo [elapsed] timings), and an
    interrupted-then-resumed campaign converges to the same outcome data
    as an uninterrupted one — the chaos tests assert this byte-for-byte
    on the rendered tables. Retry backoff delays are derived from
    [(digest, attempt)] alone, so a replayed campaign sleeps
    identically. *)

type status = Journal.status =
  | Done
  | Failed of string
  | Timed_out
  | Skipped
      (** not run: the campaign was interrupted before the job started.
          Never journaled — resume re-runs exactly the skipped jobs. *)

type outcome = {
  job : Job.t;
  digest : string;
  status : status;
  result : Ifp_vm.Vm.result option;  (** [Some] iff [status = Done] *)
  from_cache : bool;
  from_journal : bool;
      (** served from a replayed write-ahead journal entry *)
  attempts : int;
      (** runner invocations: 0 on a cache hit or journal replay,
          else >= 1 *)
  elapsed : float;  (** seconds, including cache probe and backoff *)
}

type stats = {
  jobs : int;
  completed : int;
  failed : int;
  timed_out : int;
  skipped : int;  (** jobs not started due to graceful shutdown *)
  cache_hits : int;
  journal_replays : int;
  retries : int;  (** total extra attempts across all jobs *)
  workers : int;
  wall_seconds : float;
  interrupted : bool;  (** the [stop] flag fired during this run *)
}

val backoff_delay : base:float -> digest:string -> attempt:int -> float
(** The deterministic retry delay: [base * 2^(attempt-1)] scaled by a
    jitter factor in [[1, 1.5)] seeded from [(digest, attempt)], capped
    at 5 s. [0.0] when [base <= 0.0]. Exposed for tests. *)

val default_runner : Job.t -> Ifp_vm.Vm.result
(** [Engines.run ~config:job.config job.prog] — the [runner] default.
    The engine named by [config.engine] executes the job; since engines
    are observationally identical and the field is excluded from
    {!Job.config_fingerprint}, cached and journaled results remain
    valid across engine choices. *)

val run :
  ?workers:int ->
  ?cache:Cache.t ->
  ?journal:Journal.t ->
  ?log:Events.t ->
  ?retries:int ->
  ?backoff:float ->
  ?job_timeout:float ->
  ?stop:(unit -> bool) ->
  ?on_job_done:(outcome -> unit) ->
  ?runner:(Job.t -> Ifp_vm.Vm.result) ->
  Job.t list ->
  outcome array * stats
(** Runs the batch. Defaults: [workers = 1], no cache, no journal, no
    log, [retries = 2] (i.e. up to 3 attempts), [backoff = 0.05] seconds
    base delay (pass [0.0] for immediate retries), no [job_timeout]
    (jobs may run forever), [stop] never fires, [on_job_done] is a no-op,
    [runner] = [Vm.run] with the job's config.

    [on_job_done] fires once per {e fresh} completion (run or cache
    hit — not journal replays, not skips), after the journal record for
    it is durably on disk; it runs on the worker domain that finished
    the job. The chaos harness ({!Chaos.arm_kill}) uses it to crash the
    process at a seeded point.

    Outcomes are in submission order. Events emitted: [campaign_start],
    [job_start], [job_finish], [cache_hit], [cache_corrupt],
    [cache_crc_mismatch], [journal_replay], [retry] (with [attempt] and
    [delay]), [job_timeout], [job_failed], and finally [campaign_end] —
    or [campaign_interrupted] when [stop] fired. *)

val stats_json : stats -> (string * Events.json) list
(** The stats record as JSON fields (used both for the [campaign_end] /
    [campaign_interrupted] event and for the end-of-run aggregate
    file). *)
