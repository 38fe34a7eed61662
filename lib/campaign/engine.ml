module Vm = Ifp_vm.Vm

type status = Journal.status = Done | Failed of string | Timed_out | Skipped

type outcome = {
  job : Job.t;
  digest : string;
  status : status;
  result : Vm.result option;
  from_cache : bool;
  from_journal : bool;
  attempts : int;
  elapsed : float;
}

type stats = {
  jobs : int;
  completed : int;
  failed : int;
  timed_out : int;
  skipped : int;
  cache_hits : int;
  journal_replays : int;
  retries : int;
  workers : int;
  wall_seconds : float;
  interrupted : bool;
}

(* Engine dispatch lives in the config: a job whose config names the
   closure engine (or the reference) runs under it, with no caller
   plumbing. Safe for caching because engines are observationally
   identical and [engine] is excluded from config fingerprints. *)
let default_runner (job : Job.t) =
  Ifp_vm.Engines.run ~config:job.Job.config job.Job.prog

let outcome_string (r : Vm.result) =
  match r.Vm.outcome with
  | Vm.Finished _ -> "finished"
  | Vm.Trapped t -> "trapped: " ^ Ifp_isa.Trap.to_string t
  | Vm.Aborted m -> "aborted: " ^ Vm.abort_reason_string m

(* Deterministic retry backoff: [base * 2^(attempt-1)], scaled by a
   jitter in [1, 1.5) drawn from a PRNG seeded by (digest, attempt) — so
   two campaigns replaying the same jobs sleep identically, while jobs
   colliding on a flaky shared resource spread out instead of retrying
   in lockstep. *)
let backoff_delay ~base ~digest ~attempt =
  if base <= 0.0 then 0.0
  else
    let dseed =
      let hex = String.sub digest 0 (min 15 (String.length digest)) in
      try Int64.of_string ("0x" ^ hex) with Failure _ -> 1L
    in
    let rng =
      Ifp_util.Prng.create (Ifp_util.Prng.mix2 dseed (Int64.of_int attempt))
    in
    let jitter = 1.0 +. Ifp_util.Prng.float rng 0.5 in
    Float.min (base *. (2.0 ** float_of_int (attempt - 1)) *. jitter) 5.0

(* One runner invocation, optionally under a wall-clock watchdog. The
   stdlib has no timed condition wait, so the watchdog spawns the
   attempt on its own domain and polls an atomic result slot against the
   deadline. On timeout the domain is abandoned (OCaml domains cannot be
   killed): it keeps burning a core until its VM budget trips, but the
   campaign itself moves on. If the domain limit is hit, the attempt
   falls back to running inline (no watchdog, but the job still runs). *)
let run_attempt ~job_timeout ~runner job =
  let attempt () =
    match runner job with
    | result -> `Ok result
    | exception exn -> `Exn (Printexc.to_string exn)
  in
  match job_timeout with
  | None -> attempt ()
  | Some limit -> (
    let slot = Atomic.make None in
    match Domain.spawn (fun () -> Atomic.set slot (Some (attempt ()))) with
    | exception _ -> attempt ()
    | d ->
      let deadline = Unix.gettimeofday () +. limit in
      let rec wait () =
        match Atomic.get slot with
        | Some r ->
          Domain.join d;
          r
        | None ->
          if Unix.gettimeofday () >= deadline then `Timeout
          else (
            Unix.sleepf 0.005;
            wait ())
      in
      wait ())

(* The write-ahead discipline: the record is framed, checksummed and
   flushed before [on_job_done] fires, so a chaos plan (or a real crash)
   that kills the process right after the n-th completion leaves a
   journal replaying to exactly n jobs. *)
let journal_append ~journal ~digest (job : Job.t) status result =
  match journal with
  | None -> ()
  | Some j ->
    Journal.append j
      { Journal.digest; job_name = job.Job.name; status; result }

(* One job through the single-job path: journal-replay check, cache
   probe (with quarantine), retries/backoff/watchdog, journal append,
   events. [digest] is [Job.digest job], computed up front by [run]. *)
let run_job ~cache ~journal ~on_job_done ~log ~retries ~backoff ~job_timeout
    ~runner ~digest (job : Job.t) =
  let open Events in
  let t0 = Unix.gettimeofday () in
  let base_fields = [ ("job", String job.Job.name); ("digest", String digest) ] in
  let finish outcome =
    (match outcome.status with
    | Skipped -> ()
    | status ->
      if not outcome.from_journal then (
        journal_append ~journal ~digest job status outcome.result;
        on_job_done outcome));
    outcome
  in
  (* a journaled completion is authoritative: this campaign (or the one
     being resumed) already finished the job, whatever the cache says *)
  match Option.map (fun j -> Journal.find j ~digest) journal with
  | Some (Some entry) ->
    let elapsed = Unix.gettimeofday () -. t0 in
    emit log "journal_replay"
      (base_fields
      @ [ ("status",
           String
             (match entry.Journal.status with
             | Done -> "done"
             | Failed why -> "failed: " ^ why
             | Timed_out -> "timed_out"
             | Skipped -> "skipped"));
          ("elapsed", Float elapsed) ]);
    finish
      { job; digest; status = entry.Journal.status;
        result = entry.Journal.result; from_cache = false;
        from_journal = true; attempts = 0; elapsed }
  | Some None | None -> (
    let cached =
      match cache with
      | None -> Cache.Miss
      | Some c -> Cache.find c ~digest
    in
    match cached with
    | Cache.Hit result ->
      let elapsed = Unix.gettimeofday () -. t0 in
      emit log "cache_hit" (base_fields @ [ ("elapsed", Float elapsed) ]);
      finish
        { job; digest; status = Done; result = Some result; from_cache = true;
          from_journal = false; attempts = 0; elapsed }
    | Cache.Miss | Cache.Quarantined _ ->
      (match cached with
      | Cache.Quarantined { path; reason; crc_mismatch } ->
        emit log
          (if crc_mismatch then "cache_crc_mismatch" else "cache_corrupt")
          (base_fields @ [ ("path", String path); ("reason", String reason) ])
      | _ -> ());
      emit log "job_start" base_fields;
      let max_attempts = 1 + max 0 retries in
      let rec attempt n =
        match run_attempt ~job_timeout ~runner job with
        | `Ok result -> (n, `Ok result)
        | `Timeout ->
          (* no retry: a runaway job would just hang the watchdog again *)
          (n, `Timeout)
        | `Exn why ->
          if n < max_attempts then (
            let delay = backoff_delay ~base:backoff ~digest ~attempt:n in
            emit log "retry"
              (base_fields
              @ [ ("attempt", Int n); ("delay", Float delay);
                  ("error", String why) ]);
            if delay > 0.0 then Unix.sleepf delay;
            attempt (n + 1))
          else (n, `Err why)
      in
      let attempts, outcome = attempt 1 in
      let elapsed = Unix.gettimeofday () -. t0 in
      (match outcome with
      | `Ok result ->
        (match cache with
        | Some c -> Cache.store c ~digest ~job_name:job.Job.name result
        | None -> ());
        emit log "job_finish"
          (base_fields
          @ [
              ("elapsed", Float elapsed);
              ("attempts", Int attempts);
              ("outcome", String (outcome_string result));
              ("cycles", Int result.Vm.counters.Ifp_vm.Counters.cycles);
              ("instrs", Int (Ifp_vm.Counters.total_instrs result.Vm.counters));
              ("mem_footprint", Int result.Vm.mem_footprint);
            ]);
        finish
          { job; digest; status = Done; result = Some result;
            from_cache = false; from_journal = false; attempts; elapsed }
      | `Timeout ->
        emit log "job_timeout"
          (base_fields
          @ [ ("elapsed", Float elapsed); ("attempts", Int attempts);
              ("limit", match job_timeout with
                | Some l -> Float l
                | None -> Null) ]);
        finish
          { job; digest; status = Timed_out; result = None;
            from_cache = false; from_journal = false; attempts; elapsed }
      | `Err why ->
        emit log "job_failed"
          (base_fields
          @ [ ("elapsed", Float elapsed); ("attempts", Int attempts);
              ("error", String why) ]);
        finish
          { job; digest; status = Failed why; result = None;
            from_cache = false; from_journal = false; attempts; elapsed }))

let stats_json s =
  let open Events in
  [
    ("jobs", Int s.jobs);
    ("completed", Int s.completed);
    ("failed", Int s.failed);
    ("timed_out", Int s.timed_out);
    ("skipped", Int s.skipped);
    ("cache_hits", Int s.cache_hits);
    ("journal_replays", Int s.journal_replays);
    ("retries", Int s.retries);
    ("workers", Int s.workers);
    ("wall_seconds", Float s.wall_seconds);
    ("interrupted", Bool s.interrupted);
    ( "cache_hit_rate",
      if s.jobs = 0 then Float 0.0
      else Float (float_of_int s.cache_hits /. float_of_int s.jobs) );
  ]

let run ?(workers = 1) ?cache ?journal ?(log = Events.null) ?(retries = 2)
    ?(backoff = 0.05) ?job_timeout ?(stop = fun () -> false)
    ?(on_job_done = fun _ -> ()) ?(runner = default_runner) jobs =
  let open Events in
  let t0 = Unix.gettimeofday () in
  let jobs_arr = Array.of_list jobs in
  let n = Array.length jobs_arr in
  emit log "campaign_start"
    [
      ("jobs", Int n);
      ("workers", Int workers);
      ("retries", Int retries);
      ("job_timeout", match job_timeout with Some l -> Float l | None -> Null);
      ("cache", match cache with
        | Some c -> String (Cache.dir c)
        | None -> Null);
      ("model_digest", String Job.model_digest);
    ];
  (* digests are computed up front on the dispatching domain, against the
     pristine programs — before any run can touch them *)
  let digests = Array.map Job.digest jobs_arr in
  let slots = Array.make n None in
  let tasks =
    Array.init n (fun i () ->
        slots.(i) <-
          Some
            (* graceful-shutdown drain: jobs already started run to
               completion (and are journaled); jobs not yet started are
               skipped, so resume re-runs exactly those *)
            (if stop () then
               { job = jobs_arr.(i); digest = digests.(i); status = Skipped;
                 result = None; from_cache = false; from_journal = false;
                 attempts = 0; elapsed = 0.0 }
             else
               run_job ~cache ~journal ~on_job_done ~log ~retries ~backoff
                 ~job_timeout ~runner ~digest:digests.(i) jobs_arr.(i)))
  in
  Pool.run ~workers tasks;
  let outcomes =
    Array.mapi
      (fun i slot ->
        match slot with
        | Some o -> o
        | None ->
          (* only reachable if the pool dropped a task on the floor *)
          { job = jobs_arr.(i); digest = digests.(i);
            status = Failed "task never ran"; result = None;
            from_cache = false; from_journal = false; attempts = 0;
            elapsed = 0.0 })
      slots
  in
  let stats =
    Array.fold_left
      (fun s o ->
        {
          s with
          completed = (s.completed + match o.status with Done -> 1 | _ -> 0);
          failed = (s.failed + match o.status with Failed _ -> 1 | _ -> 0);
          timed_out =
            (s.timed_out + match o.status with Timed_out -> 1 | _ -> 0);
          skipped = (s.skipped + match o.status with Skipped -> 1 | _ -> 0);
          cache_hits = (s.cache_hits + if o.from_cache then 1 else 0);
          journal_replays =
            (s.journal_replays + if o.from_journal then 1 else 0);
          retries = s.retries + max 0 (o.attempts - 1);
        })
      { jobs = n; completed = 0; failed = 0; timed_out = 0; skipped = 0;
        cache_hits = 0; journal_replays = 0; retries = 0; workers;
        wall_seconds = 0.0; interrupted = false }
      outcomes
  in
  let interrupted = stop () || stats.skipped > 0 in
  let stats =
    { stats with wall_seconds = Unix.gettimeofday () -. t0; interrupted }
  in
  emit log
    (if interrupted then "campaign_interrupted" else "campaign_end")
    (stats_json stats);
  (outcomes, stats)
