(** JSONL observability for campaign runs.

    Every significant engine event (job start/finish, cache hit,
    failure, timeout, campaign begin/end) is appended as one JSON object
    per line to the event log, so a run can be tailed live and
    post-processed with standard line-oriented tooling. The writer is
    mutex-protected: worker domains emit concurrently and lines never
    interleave.

    The log is pure observability — it carries wall-clock timings and is
    therefore {e not} expected to be byte-identical across runs. The
    experiment tables on stdout are. *)

(** A minimal JSON value type (no external dependency). *)
type json =
  | Null
  | Bool of bool
  | Int of int
  | Float of float  (** non-finite floats serialise as [null] *)
  | String of string
  | List of json list
  | Obj of (string * json) list

val json_to_string : json -> string
(** Compact one-line rendering with proper string escaping. *)

val write_json_file : path:string -> json -> unit
(** Pretty-ish (2-space indented) rendering to a file, used for the
    end-of-run aggregate ([BENCH_experiments.json]). *)

type t
(** An open JSONL event sink. *)

val create : path:string -> t
(** Opens (truncates) [path] for writing. *)

val read_lines : path:string -> string list * bool
(** Crash-tolerant read: every complete (newline-terminated,
    object-shaped) JSONL line of the file, in order, plus a
    [truncated] flag that is [true] iff the file ends in a partial
    line — the signature of a writer killed mid-append. The partial
    line is dropped, never returned. A missing file reads as
    [([], false)]. *)

val iter_lines : path:string -> (string -> unit) -> bool
(** [iter_lines ~path f] applies [f] to each complete line (as
    {!read_lines}) and returns the [truncated] flag. *)

val null : t
(** A sink that discards everything (logging disabled). *)

val emit : t -> string -> (string * json) list -> unit
(** [emit t event fields] appends one line
    [{"ts": <seconds since create>, "event": event, ...fields}].
    Thread-safe; flushes after every line so the log can be tailed. *)

val close : t -> unit
