(* Tests for the lib/campaign experiment engine: serial-vs-parallel
   determinism, on-disk cache round-trips and invalidation, fault
   isolation, and the JSONL event log. *)

open Core
module Job = Ifp_campaign.Job
module Engine = Ifp_campaign.Engine
module Rcache = Ifp_campaign.Cache
module Events = Ifp_campaign.Events
module W = Ifp_workloads.Workload
module Registry = Ifp_workloads.Registry

let temp_dir prefix =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "%s-%d-%d" prefix (Unix.getpid ()) (Random.bits ()))
  in
  Unix.mkdir dir 0o755;
  dir

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Sys.remove path with Sys_error _ -> ())

let jobs_for_workloads names =
  List.concat_map
    (fun name ->
      let wl = Option.get (Registry.find name) in
      let prog = Lazy.force wl.W.prog in
      List.map
        (fun (vname, config) ->
          Job.make ~name:(name ^ "/" ^ vname) ~group:name ~variant:vname
            ~config prog)
        Report.variants)
    names

(* three cheap workloads keep this test fast while still crossing all
   five configurations *)
let det_workloads = [ "wolfcrypt-dh"; "power"; "ks" ]

let test_serial_parallel_determinism () =
  let jobs = jobs_for_workloads det_workloads in
  let serial, s_stats = Engine.run ~workers:1 jobs in
  let parallel, p_stats = Engine.run ~workers:4 jobs in
  Alcotest.(check int) "same job count" s_stats.Engine.jobs p_stats.Engine.jobs;
  Alcotest.(check int) "all completed serially" (List.length jobs)
    s_stats.Engine.completed;
  Alcotest.(check int) "all completed in parallel" (List.length jobs)
    p_stats.Engine.completed;
  Array.iteri
    (fun idx (s : Engine.outcome) ->
      let p = parallel.(idx) in
      Alcotest.(check string)
        "outcome order matches submission order" s.Engine.job.Job.name
        p.Engine.job.Job.name;
      Alcotest.(check string) "digests agree" s.Engine.digest p.Engine.digest;
      Alcotest.(check bool)
        (Printf.sprintf "results for %s identical" s.Engine.job.Job.name)
        true
        (s.Engine.result = p.Engine.result))
    serial;
  (* the aggregate a renderer would compute is identical too *)
  let row outcomes name =
    Report.of_results ~name ~lookup:(fun vname ->
        let o =
          Array.to_list outcomes
          |> List.find (fun (o : Engine.outcome) ->
                 o.Engine.job.Job.name = name ^ "/" ^ vname)
        in
        Option.get o.Engine.result)
  in
  List.iter
    (fun name ->
      let rs = row serial name and rp = row parallel name in
      Alcotest.(check bool)
        (name ^ " row equal") true
        (rs.Report.subheap.Vm.counters = rp.Report.subheap.Vm.counters
        && Report.status_string rs = Report.status_string rp))
    det_workloads

let tiny_job ?(seed = 0x5eedL) name =
  let prog =
    Ir.program ~tenv:Ctype.empty_tenv ~globals:[]
      [ Ir.func "main" [] Ctype.I64 [ Ir.Return (Some (Ir.i 42)) ] ]
  in
  Job.make ~name ~group:"tiny" ~variant:"subheap"
    ~config:{ Vm.ifp_subheap with seed }
    prog

let test_cache_roundtrip () =
  let dir = temp_dir "ifp-cache-test" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let cache = Rcache.create ~dir () in
      let job = tiny_job "tiny/subheap" in
      let cold, cold_stats = Engine.run ~cache [ job ] in
      Alcotest.(check bool) "cold run misses" false cold.(0).Engine.from_cache;
      Alcotest.(check int) "no hits cold" 0 cold_stats.Engine.cache_hits;
      let warm, warm_stats = Engine.run ~cache [ job ] in
      Alcotest.(check bool) "warm run hits" true warm.(0).Engine.from_cache;
      Alcotest.(check int) "one hit warm" 1 warm_stats.Engine.cache_hits;
      Alcotest.(check bool) "cached result identical" true
        (cold.(0).Engine.result = warm.(0).Engine.result);
      (* a config change (different MAC seed) must change the digest and
         miss the cache *)
      let other = tiny_job ~seed:0xfeedL "tiny/subheap" in
      Alcotest.(check bool) "config change changes digest" false
        (Job.digest job = Job.digest other);
      let miss, _ = Engine.run ~cache [ other ] in
      Alcotest.(check bool) "changed config misses" false
        miss.(0).Engine.from_cache;
      (* direct store/find round-trip *)
      let digest = Job.digest job in
      Alcotest.(check bool) "find returns stored entry" true
        (match Rcache.find cache ~digest with
        | Rcache.Hit _ -> true
        | _ -> false);
      Alcotest.(check bool) "unknown digest misses" true
        (Rcache.find cache ~digest:(String.make 32 '0') = Rcache.Miss);
      (* a corrupted entry is quarantined, never an error *)
      let rec find_results path =
        if Sys.is_directory path then
          Array.to_list (Sys.readdir path)
          |> List.concat_map (fun f -> find_results (Filename.concat path f))
        else if Filename.check_suffix path ".result" then [ path ]
        else []
      in
      List.iter
        (fun path ->
          let oc = open_out path in
          output_string oc "corrupt";
          close_out oc)
        (find_results dir);
      Alcotest.(check bool) "corrupt entry is quarantined to .corrupt" true
        (match Rcache.find cache ~digest with
        | Rcache.Quarantined { path; _ } ->
          Filename.check_suffix path ".corrupt" && Sys.file_exists path
        | _ -> false);
      Alcotest.(check bool) "probe after quarantine is a clean miss" true
        (Rcache.find cache ~digest = Rcache.Miss))

(* event names in a JSONL log, in order, each with its line *)
let logged_events path =
  let re = Str.regexp {|"event":"\([a-z_]+\)"|} in
  List.filter_map
    (fun l ->
      match Str.search_forward re l 0 with
      | _ -> Some (Str.matched_group 1 l, l)
      | exception Not_found -> None)
    (fst (Events.read_lines ~path))

let count_events path name =
  List.length (List.filter (fun (e, _) -> e = name) (logged_events path))

let test_retry_then_fail () =
  (* a runner exception fails its job after one attempt without touching
     the rest of the campaign; failures are never cached, so re-running
     the campaign against the same cache runs the failed job again *)
  let log_path = Filename.temp_file "ifp-campaign-test" ".jsonl" in
  let dir = temp_dir "ifp-cache-fail" in
  Fun.protect
    ~finally:(fun () ->
      rm_rf dir;
      try Sys.remove log_path with Sys_error _ -> ())
    (fun () ->
      let cache = Rcache.create ~dir () in
      let ok = tiny_job "tiny/ok" in
      let boom = tiny_job ~seed:1L "tiny/boom" in
      let boom_runs = Atomic.make 0 in
      let runner (job : Job.t) =
        if job.Job.name = "tiny/boom" then (
          Atomic.incr boom_runs;
          failwith "injected crash")
        else Vm.run ~config:job.Job.config job.Job.prog
      in
      let log = Events.create ~path:log_path in
      let outcomes, stats = Engine.run ~cache ~runner ~log [ ok; boom ] in
      Events.close log;
      Alcotest.(check bool) "boom failed with the exception text" true
        (outcomes.(1).Engine.status
        = Engine.Failed (Printexc.to_string (Failure "injected crash")));
      Alcotest.(check int) "boom ran once" 1 (Atomic.get boom_runs);
      Alcotest.(check bool) "boom has no result" true
        (outcomes.(1).Engine.result = None);
      Alcotest.(check bool) "ok job done" true
        (outcomes.(0).Engine.status = Engine.Done);
      Alcotest.(check int) "stats: one failure" 1 stats.Engine.failed;
      (* the JSONL log saw the whole story *)
      let count = count_events log_path in
      Alcotest.(check int) "campaign_start logged" 1 (count "campaign_start");
      Alcotest.(check int) "one job_failed event" 1 (count "job_failed");
      Alcotest.(check int) "one job_finish event" 1 (count "job_finish");
      Alcotest.(check int) "campaign_end logged" 1 (count "campaign_end");
      let again, stats = Engine.run ~cache ~runner [ ok; boom ] in
      Alcotest.(check bool) "ok served from cache" true
        again.(0).Engine.from_cache;
      Alcotest.(check int) "re-run retried boom" 2 (Atomic.get boom_runs);
      Alcotest.(check int) "and it failed again" 1 stats.Engine.failed)

let test_hook_exception_fails_job () =
  (* whatever escapes a job — here the completion hook, on two worker
     domains — becomes that job's [Failed] status and a [job_failed]
     event; no job is dropped *)
  let log_path = Filename.temp_file "ifp-campaign-hook" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove log_path with Sys_error _ -> ())
    (fun () ->
      let jobs =
        List.init 6 (fun i ->
            tiny_job ~seed:(Int64.of_int i) (Printf.sprintf "tiny/%d" i))
      in
      let log = Events.create ~path:log_path in
      let outcomes, stats =
        Engine.run ~workers:2 ~log ~on_job_done:(fun _ -> failwith "hook") jobs
      in
      Events.close log;
      let names_hook s =
        match Str.search_forward (Str.regexp_string "hook") s 0 with
        | _ -> true
        | exception Not_found -> false
      in
      Array.iter
        (fun (o : Engine.outcome) ->
          match o.Engine.status with
          | Engine.Failed why ->
            Alcotest.(check bool)
              (o.Engine.job.Job.name ^ " names the hook")
              true (names_hook why)
          | _ -> Alcotest.failf "%s did not fail" o.Engine.job.Job.name)
        outcomes;
      Alcotest.(check int) "every job failed" 6 stats.Engine.failed;
      let failed =
        List.filter (fun (e, _) -> e = "job_failed") (logged_events log_path)
      in
      Alcotest.(check int) "one job_failed event per job" 6
        (List.length failed);
      Alcotest.(check bool) "each event names the hook" true
        (List.for_all (fun (_, l) -> names_hook l) failed))

let test_watchdog_times_out () =
  let ok = tiny_job "tiny/ok" in
  let stuck = tiny_job ~seed:2L "tiny/stuck" in
  let runner (job : Job.t) =
    if job.Job.name = "tiny/stuck" then Unix.sleepf 2.0;
    Vm.run ~config:job.Job.config job.Job.prog
  in
  let outcomes, stats = Engine.run ~job_timeout:0.2 ~runner [ ok; stuck ] in
  Alcotest.(check bool) "stuck job timed out" true
    (outcomes.(1).Engine.status = Engine.Timed_out);
  Alcotest.(check bool) "no result for a timed-out job" true
    (outcomes.(1).Engine.result = None);
  Alcotest.(check bool) "rest of the campaign unaffected" true
    (outcomes.(0).Engine.status = Engine.Done);
  Alcotest.(check int) "stats count the timeout" 1 stats.Engine.timed_out;
  Alcotest.(check int) "a timeout is not a failure" 0 stats.Engine.failed

let find_results dir =
  let rec go path =
    if Sys.is_directory path then
      Array.to_list (Sys.readdir path)
      |> List.concat_map (fun f -> go (Filename.concat path f))
    else if Filename.check_suffix path ".result" then [ path ]
    else []
  in
  go dir

(* Store one live entry, apply [damage] to its file, and probe it. *)
let damage_and_probe damage =
  let dir = temp_dir "ifp-cache-damage" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let cache = Rcache.create ~dir () in
      let job = tiny_job "tiny/damage" in
      let _ = Engine.run ~cache [ job ] in
      let path = List.hd (find_results dir) in
      damage path;
      Rcache.find cache ~digest:(Job.digest job))

(* damage that rewrites the entry's bytes [e] as [f e] *)
let forge f path =
  let original = In_channel.with_open_bin path In_channel.input_all in
  Out_channel.with_open_bin path (fun oc -> output_string oc (f original))

let test_cache_crc_catches_damage () =
  (* the CRC framing must catch both torn writes (short payload) and
     bit rot (flipped byte) deterministically, flagged [crc_mismatch] *)
  let flip_last_byte path =
    let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
    let size = (Unix.fstat fd).Unix.st_size in
    ignore (Unix.lseek fd (size - 1) Unix.SEEK_SET);
    let b = Bytes.create 1 in
    ignore (Unix.read fd b 0 1);
    Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0xff));
    ignore (Unix.lseek fd (size - 1) Unix.SEEK_SET);
    ignore (Unix.write fd b 0 1);
    Unix.close fd
  in
  let truncate_payload path =
    let size = (Unix.stat path).Unix.st_size in
    let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
    Unix.ftruncate fd (size - 7);
    Unix.close fd
  in
  (match damage_and_probe flip_last_byte with
  | Rcache.Quarantined { crc_mismatch; _ } ->
    Alcotest.(check bool) "flipped byte flagged as CRC mismatch" true
      crc_mismatch
  | _ -> Alcotest.fail "flipped byte not quarantined");
  match damage_and_probe truncate_payload with
  | Rcache.Quarantined { crc_mismatch; _ } ->
    Alcotest.(check bool) "torn payload flagged as CRC mismatch" true
      crc_mismatch
  | _ -> Alcotest.fail "torn payload not quarantined"

let test_cache_hostile_headers () =
  (* every header field is checked as plain bytes before [Marshal] sees
     anything; a v3 reader unmarshalled the header first and died with
     SIGSEGV on the first of these *)
  let marshalled_int = Marshal.to_string 42 [] in
  let set_u32 pos v s =
    let b = Bytes.of_string s in
    Bytes.set_int32_be b pos v;
    Bytes.to_string b
  in
  let cases =
    [
      ("marshalled int as the whole entry", (fun _ -> marshalled_int), false);
      ("marshalled int in front of an entry", (fun e -> marshalled_int ^ e),
       false);
      ("short file", (fun e -> String.sub e 0 20), false);
      ("empty file", (fun _ -> ""), false);
      ("wrong magic",
       (fun e -> "IFPCACHE" ^ String.sub e 8 (String.length e - 8)), false);
      ("v3 version field", set_u32 8 3l, false);
      ("trailing bytes", (fun e -> e ^ "x"), false);
      ("length past end of file", set_u32 44 0xffff_ffffl, true);
    ]
  in
  List.iter
    (fun (name, f, crc) ->
      match damage_and_probe (forge f) with
      | Rcache.Quarantined { crc_mismatch; _ } ->
        Alcotest.(check bool) (name ^ ": crc_mismatch flag") crc crc_mismatch
      | Rcache.Hit _ | Rcache.Miss -> Alcotest.fail (name ^ " not quarantined"))
    cases;
  (* an entry that cannot be read at all is an I/O error, never a raise *)
  let as_directory path =
    Sys.remove path;
    Unix.mkdir path 0o755
  in
  match damage_and_probe as_directory with
  | Rcache.Hit _ -> Alcotest.fail "directory entry read as a hit"
  | Rcache.Miss | Rcache.Quarantined _ -> ()

let test_cache_trusts_crc_valid_payload () =
  (* the documented trust boundary (cache.mli): a payload whose header
     and CRC all check out is unmarshalled as a [Vm.result] unverified,
     so a forged payload of another type is a [Hit]. The value is never
     touched here — reading a field of it would crash the process. *)
  let forged original =
    let payload = Marshal.to_string 42 [] in
    let b = Bytes.of_string (String.sub original 0 52) in
    Bytes.set_int32_be b 44 (Int32.of_int (String.length payload));
    Bytes.set_int32_be b 48 (Ifp_util.Crc32.string payload);
    Bytes.to_string b ^ payload
  in
  match damage_and_probe (forge forged) with
  | Rcache.Hit _ -> ()
  | Rcache.Miss | Rcache.Quarantined _ ->
    Alcotest.fail "CRC-valid payload no longer trusted: update cache.mli"

let test_events_torn_line_tolerated () =
  let path = Filename.temp_file "ifp-events-torn" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let log = Events.create ~path in
      Events.emit log "one" [];
      Events.emit log "two" [];
      Events.close log;
      let lines, truncated = Events.read_lines ~path in
      Alcotest.(check (pair int bool)) "clean log: all lines, not truncated"
        (2, false)
        (List.length lines, truncated);
      (* tear the final line mid-object, as a killed writer would *)
      let size = (Unix.stat path).Unix.st_size in
      let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
      Unix.ftruncate fd (size - 5);
      Unix.close fd;
      let lines, truncated = Events.read_lines ~path in
      Alcotest.(check (pair int bool)) "torn log: partial line dropped"
        (1, true)
        (List.length lines, truncated);
      Alcotest.(check bool) "surviving line is the first event" true
        (match lines with
        | [ l ] ->
          let re = {|"event":"one"|} in
          let rec contains i =
            i + String.length re <= String.length l
            && (String.sub l i (String.length re) = re || contains (i + 1))
          in
          contains 0
        | _ -> false);
      (* iter_lines agrees *)
      let seen = ref 0 in
      let truncated' = Events.iter_lines ~path (fun _ -> incr seen) in
      Alcotest.(check (pair int bool)) "iter_lines agrees" (1, true)
        (!seen, truncated');
      (* a missing file reads as empty, not an error *)
      let ghost = path ^ ".missing" in
      Alcotest.(check (pair int bool)) "missing file reads empty" (0, false)
        (let ls, t = Events.read_lines ~path:ghost in
         (List.length ls, t)))

let test_failed_job_visible_in_row () =
  (* a hard-failed variant still renders: the placeholder result keeps
     the row assemblable and the failure shows up in the status column *)
  let r = Report.aborted_result "campaign job failed: injected" in
  let returning v vname =
    Vm.run ~config:(List.assoc vname Report.variants)
      (Ir.program ~tenv:Ctype.empty_tenv ~globals:[]
         [ Ir.func "main" [] Ctype.I64 [ Ir.Return (Some (Ir.i v)) ] ])
  in
  let row =
    Report.of_results ~name:"synthetic" ~lookup:(function
      | "wrapped" -> r
      | "subheap" -> returning 1 "subheap"
      | vname -> returning 0 vname)
  in
  (* a variant that finishes with another value than baseline's changed
     what the program computes: the status column flags that too *)
  Alcotest.(check string) "status flags the aborted and the diverging variant"
    "subheap(checksum),wrapped(abort)" (Report.status_string row);
  Alcotest.(check (list (pair string string))) "reasons preserved"
    [ ("subheap", "checksum: 1, baseline 0");
      ("wrapped", "abort: " ^ Vm.abort_reason_string
                    (Vm.Host_failure "campaign job failed: injected")) ]
    (Report.check_outcomes row)

let tests =
  [
    Alcotest.test_case "serial = parallel (3 workloads x 5 variants)" `Slow
      test_serial_parallel_determinism;
    Alcotest.test_case "cache round-trip and invalidation" `Quick
      test_cache_roundtrip;
    Alcotest.test_case "retry then fail, campaign survives" `Quick
      test_retry_then_fail;
    Alcotest.test_case "a raising hook fails each job, none dropped" `Quick
      test_hook_exception_fails_job;
    Alcotest.test_case "watchdog cuts off a runaway job" `Quick
      test_watchdog_times_out;
    Alcotest.test_case "cache CRC catches torn writes and bit rot" `Quick
      test_cache_crc_catches_damage;
    Alcotest.test_case "cache quarantines hostile headers" `Quick
      test_cache_hostile_headers;
    Alcotest.test_case "cache trusts a CRC-valid payload" `Quick
      test_cache_trusts_crc_valid_payload;
    Alcotest.test_case "event log tolerates a torn final line" `Quick
      test_events_torn_line_tolerated;
    Alcotest.test_case "failed variant visible in row status" `Quick
      test_failed_job_visible_in_row;
  ]
