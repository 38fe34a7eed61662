(** Write-ahead journal for campaign runs: crash-safe completion records
    with tail-truncation-tolerant replay.

    The result cache ({!Cache}) already makes {e re-running} cheap, but
    it is content-addressed and best-effort: it says nothing about which
    jobs {e this campaign} already finished, and a process killed
    mid-campaign leaves no authoritative record of its progress. The
    journal closes that gap with the same discipline the paper demands
    of its metadata stores (§4.2's invariant that state must never be
    observable torn): one framed, checksummed record is appended — and
    flushed — per completed job, so after a SIGKILL, OOM or power loss
    the journal replays to exactly the prefix of work that finished.

    {2 On-disk format}

    A 16-byte magic header, then zero or more records. Each record is a
    frame

    {v <len : u32 BE> <crc32 : u32 BE> <payload : len bytes> v}

    where [payload] is a [Marshal] of the {!entry} and [crc32] covers
    the payload bytes. Appends are a single buffered write plus flush
    under a mutex, so concurrent worker domains never interleave frames;
    the only damage a crash can cause is a {e torn final frame}, which
    replay detects (short frame, short payload, CRC mismatch, or
    undecodable marshal) and drops — every preceding record is intact by
    construction. Nothing is ever rewritten in place.

    {2 Trust boundary}

    The magic and the frame header are plain bytes, checked before
    anything is unmarshalled. A payload is trusted once the magic, the
    frame length and the CRC all match: it is then unmarshalled as an
    {!entry} without further checking. [Marshal] is not type-safe, so a
    {e crafted} frame with a valid CRC over a value of another type
    replays as an entry and crashes the process on first field access.
    A journal is only as trustworthy as the user who can write it; the
    checks defend against torn appends and bit rot, not against an
    attacker. For the same reason, any change to the shape of {!entry}
    or {!Ifp_vm.Vm.result} must change {!magic} (and bump
    {!Cache.format_version}, which has the same boundary).

    {2 Replay semantics}

    Replay is idempotent: records are keyed by job digest and a later
    record for the same digest wins, so replaying a journal twice (or a
    journal that somehow holds duplicates) yields the same entry set as
    replaying it once. {!open_resume} additionally truncates the file
    back to its last intact frame before reopening for append, so a torn
    tail is physically discarded rather than skipped forever. *)

(** Completion status of a journaled job. Mirrors {!Engine.status}
    (which re-exports this type). [Skipped] — a job not run because the
    campaign was interrupted — is {e never} written to the journal: an
    unjournaled job is exactly what resume must re-run. *)
type status = Done | Failed of string | Timed_out | Skipped

type entry = {
  digest : string;  (** {!Job.digest} — the replay key *)
  job_name : string;  (** human label, for logs and post-mortems *)
  status : status;
  result : Ifp_vm.Vm.result option;  (** [Some] iff [status = Done] *)
}

type replay = {
  entries : entry list;  (** intact records, file order, deduped by digest *)
  torn_tail : bool;
      (** the file ended in a damaged frame (crash mid-append) that was
          dropped *)
  valid_bytes : int;  (** offset of the last intact frame's end *)
}

type t
(** An open journal writer. *)

val magic : string
(** The 16-byte file header. Exposed for the chaos harness and tests
    (e.g. "chop the tail but never the head"). *)

exception Bad_magic of string
(** Raised (with the offending path) when an existing file is not a
    journal at all — a torn {e tail} is tolerated, a wrong {e head} is a
    caller error. *)

val create : path:string -> t
(** Opens [path] fresh for writing (truncating any previous content) and
    writes the magic header.
    @raise Sys_error if the path cannot be opened — an unwritable
    journal is a configuration error, not something to run without. *)

val open_resume : path:string -> t * replay
(** Replays [path] (an empty or missing file replays to no entries),
    truncates any torn tail, and reopens for append positioned after the
    last intact record. Replayed entries stay queryable via {!find}.
    @raise Bad_magic if the file exists but does not start with the
    journal magic. *)

val replay : path:string -> replay
(** Read-only replay, for tools and tests. Missing file: empty replay.
    @raise Bad_magic as for {!open_resume}. *)

val find : t -> digest:string -> entry option
(** Replayed-or-appended entry for [digest], if any. This is what lets
    {!Engine.run} treat the journal as an authoritative cache: a found
    entry is served without re-running the job. *)

val replayed : t -> int
(** Number of distinct entries recovered by {!open_resume} (0 for
    {!create}). *)

val append : t -> entry -> unit
(** Appends one framed record and flushes. Thread-safe. Entries with
    [status = Skipped] are asserted away — journaling a skip would make
    resume believe the job finished. I/O errors are swallowed (a
    journal-write failure must not fail the job), but the entry still
    becomes visible to {!find}. *)

val close : t -> unit
