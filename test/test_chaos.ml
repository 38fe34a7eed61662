(* Chaos-harness integration tests: fork the real chaos_child campaign
   binary, SIGKILL it at seeded points (or SIGTERM it mid-flight), and
   assert that --resume converges to output byte-identical to an
   uninterrupted run — for several kill points and worker counts. Also
   covers seeded journal-tail truncation, torn cache entries, and the
   in-process graceful-stop path. *)

open Core
module Job = Ifp_campaign.Job
module Engine = Ifp_campaign.Engine
module Journal = Ifp_campaign.Journal
module Rcache = Ifp_campaign.Cache
module Events = Ifp_campaign.Events
module Chaos = Ifp_campaign.Chaos

(* the victim binary is built next to the test runner (see test/dune);
   resolve it relative to the running executable so the tests work from
   any cwd (`dune runtest` and `dune exec` differ) *)
let child_exe =
  let beside = Filename.concat (Filename.dirname Sys.executable_name) "chaos_child.exe" in
  if Sys.file_exists beside then beside else "./chaos_child.exe"
let child_jobs = 30

let fresh_dir prefix =
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "%s-%d-%d" prefix (Unix.getpid ()) (Random.bits ()))
  in
  Unix.mkdir path 0o755;
  path

let fresh_path prefix ext =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "%s-%d-%d%s" prefix (Unix.getpid ()) (Random.bits ()) ext)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let remove_quiet path = try Sys.remove path with Sys_error _ -> ()

(* spawn chaos_child with stdout/stderr discarded; returns pid *)
let spawn args =
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process child_exe
      (Array.of_list (child_exe :: args))
      Unix.stdin devnull devnull
  in
  Unix.close devnull;
  pid

let run_child args =
  let _, status = Unix.waitpid [] (spawn args) in
  status

let status_str = function
  | Unix.WEXITED n -> Printf.sprintf "exited %d" n
  | Unix.WSIGNALED n -> Printf.sprintf "signaled %d" n
  | Unix.WSTOPPED n -> Printf.sprintf "stopped %d" n

(* one golden, uninterrupted run shared by every chaos case *)
let golden =
  lazy
    (let out = fresh_path "ifp-chaos-golden" ".txt" in
     (match run_child [ "--out"; out ] with
     | Unix.WEXITED 0 -> ()
     | st -> Alcotest.failf "golden chaos_child run: %s" (status_str st));
     let bytes = read_file out in
     remove_quiet out;
     bytes)

let check_resume_matches_golden ~label ~journal ~workers =
  let out = fresh_path "ifp-chaos-resume" ".txt" in
  (match
     run_child
       [ "--out"; out; "--resume"; journal; "-j"; string_of_int workers ]
   with
  | Unix.WEXITED 0 -> ()
  | st -> Alcotest.failf "%s: resume run: %s" label (status_str st));
  Alcotest.(check string)
    (label ^ ": resumed table byte-identical to golden")
    (Lazy.force golden) (read_file out);
  remove_quiet out

let test_kill_and_resume () =
  (* for every seeded kill point x worker count: the child must die on
     SIGKILL having journaled exactly/at least the armed number of
     completions, and --resume must converge to the golden table *)
  List.iter
    (fun seed ->
      List.iter
        (fun workers ->
          let p = Chaos.plan Chaos.Kill_runner ~seed in
          let k = Chaos.kill_point p ~jobs:child_jobs in
          let label =
            Printf.sprintf "%s j=%d" (Chaos.fingerprint p) workers
          in
          let journal = fresh_path "ifp-chaos-kill" ".wal" in
          let out = fresh_path "ifp-chaos-kill" ".txt" in
          (match
             run_child
               [ "--out"; out; "--journal"; journal; "--kill-after";
                 string_of_int k; "-j"; string_of_int workers ]
           with
          | Unix.WSIGNALED s when s = Sys.sigkill -> ()
          | st -> Alcotest.failf "%s: expected SIGKILL death, got %s" label
                    (status_str st));
          Alcotest.(check bool)
            (label ^ ": no output table from the killed run")
            false (Sys.file_exists out);
          let rep = Journal.replay ~path:journal in
          let n = List.length rep.Journal.entries in
          (* WAL discipline: the record hits disk before the hook fires,
             so the k-th completion is always journaled; concurrent
             workers may have landed a few more *)
          if not (n >= k && n <= child_jobs) then
            Alcotest.failf "%s: %d journaled records outside [%d, %d]"
              label n k child_jobs;
          if workers = 1 then
            Alcotest.(check int)
              (label ^ ": single worker journals exactly k records")
              k n;
          check_resume_matches_golden ~label ~journal ~workers;
          Alcotest.(check int)
            (label ^ ": journal complete after resume")
            child_jobs
            (List.length (Journal.replay ~path:journal).Journal.entries);
          remove_quiet journal)
        [ 1; 3 ])
    [ 0xC4A05L; 0x7EA51DEL ]

let test_truncate_journal_tail_and_resume () =
  (* complete a run, chop seeded bytes off the journal tail, resume:
     only torn records may be lost, and resume restores the full set *)
  List.iter
    (fun seed ->
      let p = Chaos.plan Chaos.Truncate_journal_tail ~seed in
      let label = Chaos.fingerprint p in
      let journal = fresh_path "ifp-chaos-trunc" ".wal" in
      let out = fresh_path "ifp-chaos-trunc" ".txt" in
      (match run_child [ "--out"; out; "--journal"; journal ] with
      | Unix.WEXITED 0 -> ()
      | st -> Alcotest.failf "%s: full run: %s" label (status_str st));
      remove_quiet out;
      let cut = Chaos.truncate_journal_tail p ~path:journal in
      if cut = None then Alcotest.failf "%s: nothing truncated" label;
      let rep = Journal.replay ~path:journal in
      let n = List.length rep.Journal.entries in
      if n > child_jobs then
        Alcotest.failf "%s: replay grew records (%d)" label n;
      check_resume_matches_golden ~label ~journal ~workers:2;
      Alcotest.(check int)
        (label ^ ": journal complete after resume")
        child_jobs
        (List.length (Journal.replay ~path:journal).Journal.entries);
      remove_quiet journal)
    [ 3L; 0xB0B0L ]

let test_sigterm_drains_and_resumes () =
  (* graceful path: slow jobs, SIGTERM mid-campaign. Either the child
     drains and exits 130 (then resume must converge) or — if the
     machine was fast enough to finish first — it exits 0 with the
     golden table directly. Both are correct behaviours; a raw death is
     not. *)
  let journal = fresh_path "ifp-chaos-term" ".wal" in
  let out = fresh_path "ifp-chaos-term" ".txt" in
  let pid =
    spawn
      [ "--out"; out; "--journal"; journal; "--slow-ms"; "40"; "-j"; "2" ]
  in
  Unix.sleepf 0.25;
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  let _, status = Unix.waitpid [] pid in
  (match status with
  | Unix.WEXITED 130 ->
    Alcotest.(check bool) "no table from the interrupted run" false
      (Sys.file_exists out);
    let rep = Journal.replay ~path:journal in
    Alcotest.(check bool) "drained journal is not torn" false
      rep.Journal.torn_tail;
    check_resume_matches_golden ~label:"sigterm" ~journal ~workers:2
  | Unix.WEXITED 0 ->
    (* campaign finished before the signal landed *)
    Alcotest.(check string) "finished run matches golden"
      (Lazy.force golden) (read_file out)
  | st -> Alcotest.failf "sigterm: expected exit 130 or 0, got %s"
            (status_str st));
  remove_quiet out;
  remove_quiet journal

let tiny_prog i =
  Ir.program ~tenv:Ctype.empty_tenv ~globals:[]
    [ Ir.func "main" [] Ctype.I64 [ Ir.Return (Some (Ir.i (i * 3))) ] ]

let tiny_job i =
  Job.make
    ~name:(Printf.sprintf "chaos-mem/%02d" i)
    ~group:"chaos-mem" ~variant:"subheap" ~config:Vm.ifp_subheap
    (tiny_prog i)

let test_tear_cache_entry_quarantines () =
  let dir = fresh_dir "ifp-chaos-cache" in
  let jobs = List.init 8 tiny_job in
  let cache = Rcache.create ~dir () in
  let first, _ = Engine.run ~cache jobs in
  let p = Chaos.plan Chaos.Tear_cache_entry ~seed:11L in
  (match Chaos.tear_cache_entry p ~dir with
  | Some _ -> ()
  | None -> Alcotest.fail "no cache entry to tear");
  (* an engine pass over the damaged cache self-heals: quarantines the
     torn entry (emitting the corruption event), re-runs that one job,
     and serves the other seven from cache with identical results *)
  let log_path = fresh_path "ifp-chaos-cache" ".jsonl" in
  let log = Events.create ~path:log_path in
  let again, stats = Engine.run ~cache ~log jobs in
  Events.close log;
  Alcotest.(check int) "seven served from cache" 7 stats.Engine.cache_hits;
  Array.iteri
    (fun i (o : Engine.outcome) ->
      Alcotest.(check bool) "self-healed result identical" true
        (o.Engine.result = first.(i).Engine.result))
    again;
  let lines, truncated = Events.read_lines ~path:log_path in
  Alcotest.(check bool) "event log intact" false truncated;
  let has_corruption_event =
    List.exists
      (fun l ->
        let has s =
          let n = String.length l and m = String.length s in
          let rec go i = i + m <= n && (String.sub l i m = s || go (i + 1)) in
          go 0
        in
        has "\"cache_crc_mismatch\"" || has "\"cache_corrupt\"")
      lines
  in
  Alcotest.(check bool) "corruption event emitted" true has_corruption_event;
  remove_quiet log_path;
  (* the engine re-stored the healed entry; tear again and probe by
     hand: exactly one digest quarantines (preserving the evidence
     file), never a Hit with a wrong result, and the rest still hit *)
  let torn =
    match Chaos.tear_cache_entry p ~dir with
    | Some path -> path
    | None -> Alcotest.fail "no cache entry to tear (second pass)"
  in
  let quarantined = ref 0 in
  List.iter
    (fun (j : Job.t) ->
      match Rcache.find cache ~digest:(Job.digest j) with
      | Rcache.Hit _ -> ()
      | Rcache.Miss -> Alcotest.fail "unexpected cache miss"
      | Rcache.Quarantined { path; _ } ->
        incr quarantined;
        Alcotest.(check bool) "quarantine file preserved" true
          (Sys.file_exists path))
    jobs;
  Alcotest.(check int) "exactly the torn entry quarantined" 1 !quarantined;
  Alcotest.(check bool) "torn original gone" false (Sys.file_exists torn)

let test_graceful_stop_in_process () =
  (* in-process dual of the SIGTERM test: flip the stop flag from the
     first completion hook, confirm the drain (skipped jobs, interrupted
     stats, journal holds only completions), then resume to convergence *)
  let journal_path = fresh_path "ifp-chaos-stop" ".wal" in
  let jobs = List.init 12 tiny_job in
  let stopped = Atomic.make false in
  let journal = Journal.create ~path:journal_path in
  let _, s1 =
    Engine.run ~workers:2 ~journal
      ~stop:(fun () -> Atomic.get stopped)
      ~on_job_done:(fun _ -> Atomic.set stopped true)
      jobs
  in
  Journal.close journal;
  Alcotest.(check bool) "run reports interrupted" true s1.Engine.interrupted;
  Alcotest.(check bool) "some jobs were skipped" true (s1.Engine.skipped > 0);
  let rep = Journal.replay ~path:journal_path in
  let done_before = List.length rep.Journal.entries in
  Alcotest.(check int) "journal holds exactly the completions" done_before
    (s1.Engine.completed + s1.Engine.failed + s1.Engine.timed_out);
  (* resume: replays everything journaled, runs only the skipped rest *)
  let journal, rep = Journal.open_resume ~path:journal_path in
  Alcotest.(check bool) "graceful journal is not torn" false
    rep.Journal.torn_tail;
  let full, s2 = Engine.run ~workers:2 ~journal jobs in
  Journal.close journal;
  Alcotest.(check bool) "resumed run completes" false s2.Engine.interrupted;
  Alcotest.(check int) "replays = prior completions" done_before
    s2.Engine.journal_replays;
  let reference, _ = Engine.run jobs in
  Array.iteri
    (fun i (o : Engine.outcome) ->
      Alcotest.(check bool) "converged result identical" true
        (o.Engine.result = reference.(i).Engine.result))
    full;
  remove_quiet journal_path

(* --resume of a file that is not a journal (here: a future magic) is a
   one-line error naming the file and exit 1, never an uncaught
   exception; the file is left untouched *)
let test_resume_non_journal () =
  let bogus = fresh_path "ifp-chaos-bogus" ".wal" in
  let contents = "ifp-journal-v2.\nnot a v1 record stream" in
  Out_channel.with_open_bin bogus (fun oc -> output_string oc contents);
  let err = fresh_path "ifp-chaos-bogus" ".err" in
  let fd = Unix.openfile err [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid =
    Unix.create_process child_exe
      [| child_exe; "--resume"; bogus |]
      Unix.stdin Unix.stdout fd
  in
  Unix.close fd;
  let _, status = Unix.waitpid [] pid in
  Alcotest.(check string) "exit status" "exited 1" (status_str status);
  Alcotest.(check string) "one stderr line naming the file"
    (bogus ^ ": not a campaign journal, cannot resume from it\n")
    (read_file err);
  Alcotest.(check string) "file untouched" contents (read_file bogus);
  remove_quiet bogus;
  remove_quiet err

let tests =
  [
    Alcotest.test_case "SIGKILL at seeded points; resume is byte-identical"
      `Slow test_kill_and_resume;
    Alcotest.test_case "seeded journal-tail truncation; resume converges"
      `Slow test_truncate_journal_tail_and_resume;
    Alcotest.test_case "SIGTERM drains gracefully; resume converges" `Slow
      test_sigterm_drains_and_resumes;
    Alcotest.test_case "torn cache entry quarantines and self-heals" `Quick
      test_tear_cache_entry_quarantines;
    Alcotest.test_case "in-process graceful stop and resume" `Quick
      test_graceful_stop_in_process;
    Alcotest.test_case "resume of a non-journal is a clean error" `Quick
      test_resume_non_journal;
  ]
