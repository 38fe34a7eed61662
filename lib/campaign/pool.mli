(** A [Domain]-based worker pool (OCaml 5, no external dependencies).

    Tasks are drained from a mutex/condition work queue by [workers]
    domains. With [workers <= 1] the tasks run inline on the calling
    domain in submission order — the guaranteed-serial reference path the
    determinism tests compare against.

    Tasks must not raise: an exception escaping a task ends its worker
    and is re-raised from {!run} when that worker is joined. The
    campaign engine wraps every job so that nothing escapes. *)

val run : workers:int -> (unit -> 'a) array -> 'a array
(** Runs every task to completion and returns their results in
    submission order. Spawns [min workers (Array.length tasks)] domains
    ([workers <= 1]: none). *)
