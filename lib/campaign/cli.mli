(** Shared crash-safety scaffolding for the campaign binaries
    ([ifp_experiments], [ifp_faults], [ifp_juliet]): signal-driven
    graceful shutdown, journal opening/resume, resumable event logs and
    the interrupted-exit path. Lives in the library so the three drivers
    stay flag-for-flag and event-for-event consistent. *)

val install_interrupt : unit -> unit -> bool
(** Installs SIGINT and SIGTERM handlers that set a shared stop flag and
    returns the flag's reader, for {!Engine.run}'s [?stop]. Handlers
    only set the flag — the engine drains in-flight jobs, the driver
    flushes and exits via {!finish}, so the handlers are never
    uninstalled. Platforms rejecting a signal are tolerated (that signal
    then never fires the flag). *)

val parse_bytes : string -> int option
(** Byte-count CLI arguments: plain digits, or with a [k]/[M]/[G]
    (case-insensitive, 1024-based) suffix. [None] on anything else or on
    negative values. *)

val open_journal :
  path:string option ->
  resume:bool ->
  Journal.t option * Journal.replay option
(** [path = None]: no journal. [resume = false]: fresh journal at
    [path]. [resume = true]: {!Journal.open_resume} — the replay info is
    returned for the [campaign_resumed] event. *)

val open_log :
  path:string option -> resume:bool -> Events.t * bool
(** Opens the JSONL event log: truncating on a fresh run, appending
    (with torn-tail repair, via {!Events.open_append}) on resume. The
    flag reports whether a torn final line was dropped. *)

val emit_resumed :
  Events.t -> replay:Journal.replay option -> log_truncated:bool -> unit
(** Emits the [campaign_resumed] event (replayed-entry count, journal
    torn-tail flag, log torn-line flag) — a no-op when not resuming. *)

val finish :
  ?hint:string ->
  journal:Journal.t option ->
  log:Events.t ->
  interrupted:bool ->
  unit ->
  unit
(** The single exit point for a campaign driver, enforcing the
    process-exit contract of {!Engine}: flush and close the journal and
    log, then [Stdlib.exit] — [130] when [interrupted] (printing the
    resume [hint] to stderr, if any), [0] otherwise — rather than returning from [main] and waiting
    on abandoned watchdog domains that cannot be cancelled. Never
    returns. *)
