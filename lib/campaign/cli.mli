(** Shared plumbing for the command-line tools ([ifp_run],
    [ifp_experiments], [ifp_fuzz]): one [Arg] driver, the campaign flags
    declared once, signal-driven graceful shutdown, the event log, and
    the interrupted-exit path. Lives in the library so the drivers stay
    flag-for-flag and event-for-event consistent. *)

val parse :
  usage:string -> (Arg.key * Arg.spec * Arg.doc) list -> Arg.anon_fun -> unit
(** [parse ~usage specs anon] parses [Sys.argv] with [Arg], adding [-h]
    and [--help] and aligning the docs. Help prints the usage and every
    documented flag to stdout and exits 0; an unknown flag, a missing or
    malformed value, or an [Arg.Bad] raised by a spec or by [anon]
    prints the error and the usage to stderr and exits 1. *)

val nat : (int -> unit) -> Arg.spec
(** An [Arg.Int] that rejects negative numbers. *)

val int64 : (int64 -> unit) -> Arg.spec
(** An argument read with [Int64.of_string]. *)

val load_minic : string -> string * Ifp_compiler.Ir.program
(** A MiniC file's source and program through {!Ifp_compiler.Frontend.load};
    a missing file or a located lex, parse or type error is printed to
    stderr and exits 1. *)

(** The campaign flags' settings, holding the tool's defaults until
    parsed. *)
type campaign = {
  mutable workers : int;  (** [-j N] / [--jobs N], at least 1 *)
  mutable cache_dir : string option;
      (** [--cache-dir DIR]; [None] after [--no-cache] *)
  mutable log_path : string option;  (** [--log FILE]; [None] after [--no-log] *)
}

val campaign_specs : campaign -> (Arg.key * Arg.spec * Arg.doc) list
(** [-j]/[--jobs], [--cache-dir], [--no-cache], [--log] and [--no-log],
    writing into the record; their docs name the defaults it holds when
    called. *)

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
(** The single exit point for a campaign driver: close the log, then
    [Stdlib.exit] — [130] when [interrupted] (printing [hint] to stderr,
    if any), [0] otherwise. Never returns. *)
