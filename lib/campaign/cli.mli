(** Shared plumbing for the campaign binaries ([ifp_experiments],
    [ifp_faults], [ifp_juliet], [ifp_fuzz]): signal-driven graceful
    shutdown, the event log, and the interrupted-exit path. Lives in the
    library so the drivers stay flag-for-flag and event-for-event
    consistent. *)

val install_interrupt : unit -> unit -> bool
(** Installs SIGINT and SIGTERM handlers that set a shared stop flag and
    returns the flag's reader, for {!Engine.run}'s [?stop]. Handlers
    only set the flag — the engine drains in-flight jobs, the driver
    flushes and exits via {!finish}, so the handlers are never
    uninstalled. Platforms rejecting a signal are tolerated (that signal
    then never fires the flag). *)

val open_log : path:string option -> Events.t
(** Opens (truncating) the JSONL event log at [path]; [None] is
    {!Events.null}. *)

val resume_hint : Cache.t option -> string
(** How to pick up an interrupted campaign: re-run the same command
    against the same cache directory — or, without a cache, that
    nothing was kept. *)

val finish : ?hint:string -> log:Events.t -> interrupted:bool -> unit -> unit
(** The single exit point for a campaign driver, enforcing the
    process-exit contract of {!Engine}: close the log, then
    [Stdlib.exit] — [130] when [interrupted] (printing [hint] to stderr,
    if any), [0] otherwise — rather than returning from [main] and
    waiting on abandoned watchdog domains that cannot be cancelled.
    Never returns. *)
