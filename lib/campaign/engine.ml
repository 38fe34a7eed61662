module Vm = Ifp_vm.Vm

type status = Done | Failed of string | Timed_out | Skipped

type outcome = {
  job : Job.t;
  digest : string;
  status : status;
  result : Vm.result option;
  from_cache : bool;
  elapsed : float;
}

type stats = {
  jobs : int;
  completed : int;
  failed : int;
  timed_out : int;
  skipped : int;
  cache_hits : int;
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

(* One runner invocation, optionally under a wall-clock watchdog. The
   stdlib has no timed condition wait, so the watchdog spawns the run on
   its own domain and polls an atomic result slot against the deadline.
   On timeout the domain is abandoned (OCaml domains cannot be killed):
   it keeps burning a core until its VM budget trips, but the campaign
   itself moves on. If the domain limit is hit, the run falls back to
   inline (no watchdog, but the job still runs). A runner exception is
   re-raised on the calling domain. *)
let run_watched ~job_timeout ~runner job =
  match job_timeout with
  | None -> `Ok (runner job)
  | Some limit -> (
    let slot = Atomic.make None in
    let attempt () =
      Atomic.set slot
        (Some (match runner job with r -> Ok r | exception e -> Error e))
    in
    match Domain.spawn attempt with
    | exception _ -> `Ok (runner job)
    | d ->
      let deadline = Unix.gettimeofday () +. limit in
      let rec wait () =
        match Atomic.get slot with
        | Some r ->
          Domain.join d;
          (match r with Ok r -> `Ok r | Error e -> raise e)
        | None ->
          if Unix.gettimeofday () >= deadline then `Timeout
          else (
            Unix.sleepf 0.005;
            wait ())
      in
      wait ())

(* One job: cache probe (with quarantine), run under the watchdog, cache
   store, events. The result is renamed into the cache before
   [on_job_done] fires, so a crash right after the n-th completion
   leaves at least n entries for the re-run to hit. Exceptions escape to
   [run]'s task wrapper, which owns the [Failed] path. *)
let run_job ~cache ~on_job_done ~log ~job_timeout ~runner ~digest ~started
    (job : Job.t) =
  let open Events in
  let base_fields = [ ("job", String job.Job.name); ("digest", String digest) ] in
  let finish ?(from_cache = false) event fields status result =
    let elapsed = Unix.gettimeofday () -. started in
    emit log event (base_fields @ (("elapsed", Float elapsed) :: fields));
    let outcome = { job; digest; status; result; from_cache; elapsed } in
    on_job_done outcome;
    outcome
  in
  let cached =
    match cache with None -> Cache.Miss | Some c -> Cache.find c ~digest
  in
  match cached with
  | Cache.Hit result -> finish ~from_cache:true "cache_hit" [] Done (Some result)
  | Cache.Miss | Cache.Quarantined _ -> (
    (match cached with
    | Cache.Quarantined { path; reason; crc_mismatch } ->
      emit log
        (if crc_mismatch then "cache_crc_mismatch" else "cache_corrupt")
        (base_fields @ [ ("path", String path); ("reason", String reason) ])
    | _ -> ());
    emit log "job_start" base_fields;
    match run_watched ~job_timeout ~runner job with
    | `Ok result ->
      Option.iter
        (fun c -> Cache.store c ~digest ~job_name:job.Job.name result)
        cache;
      finish "job_finish"
        [
          ("outcome", String (outcome_string result));
          ("cycles", Int result.Vm.counters.Ifp_vm.Counters.cycles);
          ("instrs", Int (Ifp_vm.Counters.total_instrs result.Vm.counters));
          ("mem_footprint", Int result.Vm.mem_footprint);
        ]
        Done (Some result)
    | `Timeout ->
      finish "job_timeout"
        [ ("limit", match job_timeout with Some l -> Float l | None -> Null) ]
        Timed_out None)

let stats_json s =
  let open Events in
  [
    ("jobs", Int s.jobs);
    ("completed", Int s.completed);
    ("failed", Int s.failed);
    ("timed_out", Int s.timed_out);
    ("skipped", Int s.skipped);
    ("cache_hits", Int s.cache_hits);
    ("workers", Int s.workers);
    ("wall_seconds", Float s.wall_seconds);
    ("interrupted", Bool s.interrupted);
    ( "cache_hit_rate",
      if s.jobs = 0 then Float 0.0
      else Float (float_of_int s.cache_hits /. float_of_int s.jobs) );
  ]

let run ?(workers = 1) ?cache ?(log = Events.null) ?job_timeout
    ?(stop = fun () -> false) ?(on_job_done = fun _ -> ())
    ?(runner = default_runner) jobs =
  let open Events in
  let t0 = Unix.gettimeofday () in
  let jobs_arr = Array.of_list jobs in
  let n = Array.length jobs_arr in
  emit log "campaign_start"
    [
      ("jobs", Int n);
      ("workers", Int workers);
      ("job_timeout", match job_timeout with Some l -> Float l | None -> Null);
      ("cache", match cache with
        | Some c -> String (Cache.dir c)
        | None -> Null);
      ("model_digest", String Job.model_digest);
    ];
  (* digests are computed up front on the dispatching domain, against the
     pristine programs — before any run can touch them *)
  let digests = Array.map Job.digest jobs_arr in
  let task i () =
    let job = jobs_arr.(i) and digest = digests.(i) in
    let started = Unix.gettimeofday () in
    let ended status =
      { job; digest; status; result = None; from_cache = false;
        elapsed = Unix.gettimeofday () -. started }
    in
    (* graceful-shutdown drain: jobs already started run to completion
       (and are cached); jobs not yet started are skipped *)
    if stop () then ended Skipped
    else
      try
        run_job ~cache ~on_job_done ~log ~job_timeout ~runner ~digest ~started
          job
      with exn ->
        (* fault isolation: whatever escaped — the runner, the cache,
           the hook — fails this job only. Pool tasks must not raise. *)
        let why = Printexc.to_string exn in
        let o = ended (Failed why) in
        emit log "job_failed"
          [ ("job", String job.Job.name); ("digest", String digest);
            ("elapsed", Float o.elapsed); ("error", String why) ];
        o
  in
  let outcomes = Pool.run ~workers (Array.init n task) in
  let count p =
    Array.fold_left (fun k o -> if p o then k + 1 else k) 0 outcomes
  in
  let is status o = o.status = status in
  let skipped = count (is Skipped) in
  let stats =
    {
      jobs = n;
      completed = count (is Done);
      failed = count (fun o -> match o.status with Failed _ -> true | _ -> false);
      timed_out = count (is Timed_out);
      skipped;
      cache_hits = count (fun o -> o.from_cache);
      workers;
      wall_seconds = Unix.gettimeofday () -. t0;
      interrupted = stop () || skipped > 0;
    }
  in
  emit log
    (if stats.interrupted then "campaign_interrupted" else "campaign_end")
    (stats_json stats);
  (outcomes, stats)
