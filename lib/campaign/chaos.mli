(** Chaos harness for the campaign engine {e itself} — the host-layer
    dual of [lib/faultinject].

    [lib/faultinject] corrupts the {e simulated} machine and asks
    whether the modelled hardware detects it; this module attacks the
    {e host-side} campaign infrastructure — kills the runner process
    cold, tears cache entries mid-write — and the chaos tests ask
    whether the crash-consistency machinery ({!Cache} atomic renames and
    CRC quarantine, resume by re-running against the cache) converges
    back to results byte-identical to an undisturbed run.

    Everything is seed-driven, like a fault plan: same seed ⇒ same kill
    point / same torn byte, so a failing chaos case replays exactly. *)

(** What gets attacked. *)
type cls =
  | Kill_runner
      (** SIGKILL the campaign process after the n-th completed job — an
          uncatchable, un-drainable death (OOM killer, power loss) *)
  | Tear_cache_entry
      (** truncate a stored [.result] file at a seeded byte offset — a
          write torn by a crash racing the atomic rename, or bit rot;
          must surface as a CRC quarantine, never a wrong result *)

val all_classes : cls list
val class_name : cls -> string
val class_of_name : string -> cls option

type plan = { cls : cls; seed : int64 }

val plan : cls -> seed:int64 -> plan

val fingerprint : plan -> string
(** Stable one-line rendering, for logs and test labels. *)

val kill_point : plan -> jobs:int -> int
(** Seeded kill point in [[1, jobs]]: the number of completions after
    which {!arm_kill}'s hook should fire for this plan. *)

val arm_kill : after:int -> 'a -> unit
(** [arm_kill ~after] is a hook for {!Engine.run}'s [on_job_done]: on
    its [after]-th invocation it SIGKILLs the current process — after
    that job's result is in the cache, before anything else happens. The
    count is shared across worker domains. [after <= 0] kills on the
    first completion. *)

val tear_cache_entry : plan -> dir:string -> string option
(** Picks a seeded [.result] entry under cache directory [dir]
    (recursively, in sorted order for determinism) and truncates it at
    a seeded interior offset. Returns the damaged path, or [None] if
    the cache holds no entries. *)
