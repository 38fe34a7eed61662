(** Persistent on-disk result cache for campaign jobs.

    Layout: [<dir>/v<format_version>/<d0d1>/<digest>.result], where
    [digest] is the job's content digest ({!Job.digest}) and [d0d1] its
    first two hex characters (fan-out to keep directories small). Each
    file is written to a temporary name and atomically renamed into
    place. It holds a fixed-layout 52-byte header — magic, format
    version, the 32-character digest, payload length and payload CRC-32
    ({!Ifp_util.Crc32}) — followed by the payload, a [Marshal] of the
    {!Ifp_vm.Vm.result}. The header is plain bytes, so a damaged or
    hostile header is rejected field by field; a torn write or flipped
    payload bit is caught by the length and CRC checks
    {e deterministically} instead of depending on [Marshal] happening to
    raise.

    {2 Trust boundary}

    A payload is trusted once magic, version, digest, exact file length
    and CRC all match: it is then unmarshalled as a
    {!Ifp_vm.Vm.result} without further checking. [Marshal] is not
    type-safe, so a {e crafted} file with a valid CRC over a value of
    another type is reported as a {!Hit} and crashes the process on
    first field access. The cache directory must therefore only be
    writable by the user running the campaign; the checks defend against
    torn writes, bit rot and stale formats, not against an attacker.
    For the same reason, any change to the shape of
    {!Ifp_vm.Vm.result} (or of the types it contains) must bump
    {!format_version}.

    Invalidation is entirely key-driven: the job digest covers the
    lowered program, the configuration and the cost-model/ISA constants
    ({!Job.model_digest}), so any of those changing simply misses the
    cache. {!format_version} is bumped when the serialised shape itself
    changes; old version directories are ignored (and can be deleted
    freely — the cache is always safe to wipe). There is no size bound
    and no eviction: a full [ifp_experiments all] leaves a few
    megabytes.

    {2 Resume}

    The cache is the campaign's only durable store ({!Engine}). An entry
    is renamed into place before the engine reports the job done, so a
    killed campaign resumes by re-running the same command against the
    same directory: finished jobs come back as hits. *)

type t

val format_version : int

val create : dir:string -> unit -> t
(** A cache rooted at [dir]. Nothing is touched on disk until the first
    {!store}, which creates directories as needed. *)

val dir : t -> string

(** Result of a cache probe. A damaged entry is never fatal: it is
    quarantined — renamed to [<digest>.corrupt] next to its original
    location, preserved for post-mortem — and reported so the engine can
    emit a [cache_corrupt] (or, for checksum failures,
    [cache_crc_mismatch]) event; the next probe for the same digest is a
    clean {!Miss}. *)
type lookup =
  | Hit of Ifp_vm.Vm.result
  | Miss
  | Quarantined of { path : string; reason : string; crc_mismatch : bool }
      (** [path] is the quarantine file; [reason] is why the entry was
          rejected. [crc_mismatch] holds when the length/CRC framing
          caught the damage (short or checksum-failing payload — a torn
          write or bit rot), as opposed to a header-level rejection
          (short header, bad magic, version or digest mismatch, trailing
          bytes, undecodable payload). *)

val find : t -> digest:string -> lookup

val store : t -> digest:string -> job_name:string -> Ifp_vm.Vm.result -> unit
(** Atomic (write-to-temp then rename), so concurrent worker domains and
    concurrent campaign processes can share one cache directory. I/O
    errors are swallowed: failure to cache never fails the job.
    [job_name] is not persisted (the entry is keyed by [digest] alone).
    @raise Invalid_argument if [digest] is not 32 characters long (a
    {!Job.digest} always is). *)
