(* Layered benchmark harness.

     main.exe --workload W [--seed S] [--seconds T] [--trace 0|1] [--smoke]

   runs one workload and prints one "workload metric value unit" line per
   metric, then a JSON summary line {correct, attempted, failed, metrics}.
   With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
   timed passes alternate between untraced and traced, then a replay of
   the workload's runs and the layer microbenchmarks give the per-layer
   metrics, which are printed instead. Any failed output check makes the
   exit status 1.

   Without --workload it runs itself once per workload and trace mode,
   each in a fresh process so heap and GC state never leak between
   workloads, and checks that every run printed exactly the metric names
   and units BENCHMARK.json declares and that no output check failed.

   --smoke shrinks every workload to a few jobs and one pass. README.md
   describes the workloads, the metrics and the timing rule. *)

open Core
module Job = Ifp_campaign.Job
module Rcache = Ifp_campaign.Cache
module Events = Ifp_campaign.Events
module Oracle = Ifp_fuzz.Oracle
module Fuzz = Ifp_fuzz.Fuzz
module Gen = Ifp_fuzz.Gen
module Registry = Ifp_workloads.Registry
module W = Ifp_workloads.Workload

type opts = {
  workload : string option;
  seed : int;
  seconds : float;
  trace : bool;
  smoke : bool;
  setup_only : bool;
}

let workloads = [ "exec_ifp"; "exec_baseline"; "fuzz"; "regen" ]
let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* [f ()], under a span named [name] when [traced] *)
let maybe_span ~traced ~job name f = if traced then Span.record ~job name f else f ()

(* ---- output checks and printed metrics ------------------------------- *)

let attempted = ref 0
let failed = ref 0

let check ok what =
  incr attempted;
  if not ok then begin
    incr failed;
    prerr_endline ("check failed: " ^ what)
  end

let printed : (string * string * float) list ref = ref []
let metric name unit value = printed := (name, unit, value) :: !printed

(* ---- scratch space inside the working directory ----------------------- *)

let out_dir = ".perfbench"

let rec remove path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun f -> remove (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let mkdir_p dir = if not (Sys.file_exists dir) then Unix.mkdir dir 0o755

let tmp =
  lazy
    (mkdir_p out_dir;
     let dir = Filename.concat out_dir (Printf.sprintf "tmp-%d" (Unix.getpid ())) in
     remove dir;
     Unix.mkdir dir 0o755;
     at_exit (fun () -> remove dir);
     dir)

let tmp_path name = Filename.concat (Lazy.force tmp) name

let read_file path = In_channel.with_open_bin path In_channel.input_all
let heap_mb words = float_of_int (words * (Sys.word_size / 8)) /. 1048576.

(* ---- host speed --------------------------------------------------------- *)

(* The probe: a fixed piece of work that no change to the code under test
   can move. It mixes what the simulator's own hot loops do: dispatch on
   a counter, 8-byte loads and stores, and hashing. Its data fits in L1
   and it does not allocate, so its time depends neither on what the job
   before it left in the caches nor on when the GC runs.

   The shared host's speed changes by up to 1.6x within seconds, as other
   tenants load the same cores, and the probe's speed changes with it. So
   every timed call is measured in probe units: its seconds divided by
   the median of the probe times taken just before it, just after it and,
   for a child process, every 50 ms while it runs. Reported times are
   probe units x [probe_nominal_s], seconds on a host where the probe
   takes [probe_nominal_s]: about its median on the VM README.md
   describes, in a calm period. *)
let probe_nominal_s = 0.001
let probe_mem = Bytes.make (1 lsl 14) '\001'
let probe_tbl : (int, int) Hashtbl.t = Hashtbl.create 1024
let probe_log = ref []

let probe () =
  let t0 = now () in
  let acc = ref 0 in
  for i = 0 to 49_999 do
    let a = (i * 40503) land 0x3ff8 in
    (match (i lxor (i lsr 5)) land 3 with
    | 0 -> acc := !acc + Int64.to_int (Bytes.get_int64_le probe_mem a)
    | 1 -> Bytes.set_int64_le probe_mem a (Int64.of_int (i + !acc))
    | 2 -> Hashtbl.replace probe_tbl (a lsr 4) i
    | _ -> acc := !acc lxor try Hashtbl.find probe_tbl (a lsr 5) with Not_found -> i)
  done;
  ignore (Sys.opaque_identity !acc);
  let dt = now () -. t0 in
  probe_log := dt :: !probe_log;
  dt

let last_probe = ref nan
let during = ref []

(* [in_probe_units f] runs [f], which returns its result and the seconds
   it took, between two probes; returns the result and those seconds in
   probe units *)
let in_probe_units f =
  if Float.is_nan !last_probe then last_probe := probe ();
  let before = !last_probe in
  during := [];
  let v, dt = f () in
  let after = probe () in
  last_probe := after;
  (v, dt /. median (before :: after :: !during))

(* Runs [exe] with [args] to completion, probing every 50 ms meanwhile.
   Returns the exit status and the CPU time (user + system) the child
   used: the kernel accounts it exactly at exit, and every child here is
   CPU-bound, while its wall time could only be read to the nearest
   poll. *)
let run_child ?(env = Unix.environment ()) ?(stdout = Unix.stdout)
    ?(stderr = Unix.stderr) exe args =
  let t0 = Unix.times () in
  let pid =
    Unix.create_process_env exe (Array.of_list (exe :: args)) env Unix.stdin stdout
      stderr
  in
  let rec poll () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
      during := probe () :: !during;
      Unix.sleepf 0.05;
      poll ()
    | _, status -> status
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> poll ()
  in
  let status = poll () in
  let t1 = Unix.times () in
  (status, t1.tms_cutime -. t0.tms_cutime +. (t1.tms_cstime -. t0.tms_cstime))

(* ---- the timing rule --------------------------------------------------- *)

type times = {
  untraced : float;
      (** sum over jobs of each job's median untraced pass, in probe units *)
  traced : float;  (** the same over traced passes; nan without --trace 1 *)
  heap : float;  (** peak heap in MiB after the first pass *)
}

(* The timing rule: round-robin passes over the whole job set, every job
   once per pass, until [seconds] have passed and at least four passes
   are done (one with --smoke). A job's time is its median over passes,
   in probe units, and the workload's time is the sum of those medians:
   the probes take out the host's speed at the moment the job ran, and
   the median the remaining outliers either way.

   The first pass runs in job order, so the heap peak read after it does
   not depend on the seed; later passes run in a seed-shuffled order.
   With --trace 1 every second pass is traced and both kinds need two
   passes (one with --smoke). [job ~traced i] runs job [i] once and
   returns its timed call's duration in probe units. *)
let timed_passes ~opts n (job : traced:bool -> int -> float) =
  let order = Array.init n Fun.id in
  let samples = [| Array.make n []; Array.make n [] |] in
  let passes = [| 0; 0 |] and heap = ref 0. in
  let want = if opts.smoke then 1 else if opts.trace then 2 else 4 in
  let t0 = now () and pass = ref 0 in
  while
    passes.(0) < want
    || (opts.trace && passes.(1) < want)
    || now () -. t0 < opts.seconds
  do
    let k = if opts.trace && !pass mod 2 = 1 then 1 else 0 in
    if !pass > 0 then
      Prng.shuffle
        (Prng.create (Prng.mix2 (Int64.of_int opts.seed) (Int64.of_int !pass)))
        order;
    Array.iter
      (fun i -> samples.(k).(i) <- job ~traced:(k = 1) i :: samples.(k).(i))
      order;
    if !pass = 0 then heap := heap_mb (Gc.quick_stat ()).Gc.top_heap_words;
    passes.(k) <- passes.(k) + 1;
    incr pass
  done;
  let total k = Array.fold_left (fun a s -> a +. median s) 0. samples.(k) in
  { untraced = total 0; traced = (if opts.trace then total 1 else nan); heap = !heap }

(* Set-up, in probe units: the median of five measurements. *)
let setup_median f = median (List.init 5 (fun _ -> snd (in_probe_units f)))

(* A fresh harness process that builds the workload's inputs and exits:
   start-up, module initialisation and input construction, the time
   between a run's start and its first timed call. *)
let fresh_setup ~opts name =
  let args =
    [ "--workload"; name; "--setup-only" ] @ if opts.smoke then [ "--smoke" ] else []
  in
  setup_median (fun () ->
      let status, secs = run_child Sys.executable_name args in
      check (status = Unix.WEXITED 0) (name ^ ": set-up process did not exit 0");
      ((), secs))

(* ---- what a workload reports ------------------------------------------ *)

type measured = {
  setup_s : float;  (** in probe units *)
  times : times;
  peak_heap_mb : float;
  sim_instrs : int;
  sim_cycles : int;  (** simulated totals over every run of the workload *)
  replay : unit -> Job.t list;
      (** every (program, config) run of the workload, for the replay of
          the traced run *)
}

let finished (r : Vm.result) =
  match r.outcome with Vm.Finished _ -> true | _ -> false

let outcome_string (r : Vm.result) =
  match r.outcome with
  | Vm.Finished v -> Printf.sprintf "finished %Ld" v
  | Vm.Trapped t -> "trapped " ^ Trap.to_string t
  | Vm.Aborted a -> "aborted " ^ Vm.abort_reason_string a

(* ---- exec_ifp / exec_baseline ------------------------------------------ *)

let smoke_programs = [ "power"; "ks"; "wolfcrypt-dh" ]
let ifp_configs = [ ("subheap", Vm.ifp_subheap); ("wrapped", Vm.ifp_wrapped) ]
let baseline_configs = [ ("baseline", Vm.baseline) ]

let jobs_of ~opts configs =
  Registry.all
  |> List.filter (fun (w : W.t) -> (not opts.smoke) || List.mem w.name smoke_programs)
  |> List.concat_map (fun (w : W.t) ->
         let prog = Lazy.force w.prog in
         List.map
           (fun (variant, config) ->
             Job.make ~name:(w.name ^ "/" ^ variant) ~group:w.name ~variant ~config
               prog)
           configs)

let exec ~opts name configs =
  let jobs = Array.of_list (jobs_of ~opts configs) in
  let first = Array.make (Array.length jobs) None in
  let times =
    timed_passes ~opts (Array.length jobs) (fun ~traced i ->
        let j = jobs.(i) in
        let r, units =
          in_probe_units (fun () ->
              timed (fun () ->
                  maybe_span ~traced ~job:j.name "exec.run" (fun () ->
                      Engines.run ~config:j.config j.prog)))
        in
        let s = Oracle.result_sig r in
        if Option.is_none first.(i) then first.(i) <- Some (r, s);
        let _, s0 = Option.get first.(i) in
        check (finished r && String.equal s s0)
          (j.name ^ ": " ^ outcome_string r ^ ", or counters changed between passes");
        units)
  in
  let results = Array.map (fun o -> fst (Option.get o)) first in
  (* every configuration of one program returns the same checksum *)
  let checksums = Hashtbl.create 32 in
  Array.iteri
    (fun i (j : Job.t) ->
      Hashtbl.replace checksums j.group
        (results.(i).Vm.outcome
        :: Option.value (Hashtbl.find_opt checksums j.group) ~default:[]))
    jobs;
  Hashtbl.iter
    (fun group outcomes ->
      check
        (List.for_all (fun o -> o = List.hd outcomes) outcomes)
        (group ^ ": configurations return different checksums"))
    checksums;
  let total f = Array.fold_left (fun a (r : Vm.result) -> a + f r.counters) 0 results in
  {
    setup_s = fresh_setup ~opts name;
    times;
    peak_heap_mb = times.heap;
    sim_instrs = total Counters.total_instrs;
    sim_cycles = total (fun c -> c.cycles);
    replay = (fun () -> Array.to_list jobs);
  }

(* ---- fuzz ------------------------------------------------------------- *)

let fuzz ~opts =
  let n = if opts.smoke then 20 else 300 in
  let campaign_seed = Int64.of_int opts.seed in
  let case idx = Fuzz.job ~knobs:Gen.default ~campaign_seed ~round:0 ~idx in
  let digests = Array.make n "" and cycles = Array.make n 0 and instrs = Array.make n 0 in
  let times =
    timed_passes ~opts n (fun ~traced i ->
        let span name f = maybe_span ~traced ~job:(Printf.sprintf "fuzz/c%d" i) name f in
        let verdict, units =
          in_probe_units (fun () ->
              timed (fun () ->
                  span "fuzz.case" (fun () ->
                      match span "fuzz.job" (fun () -> case i) with
                      | j ->
                        let d = span "fuzz.digest" (fun () -> Job.digest j) in
                        Ok (d, span "fuzz.runner" (fun () -> Fuzz.runner j))
                      | exception e -> Error (Printexc.to_string e))))
        in
        (match verdict with
        | Ok (d, r) ->
          if digests.(i) = "" then begin
            digests.(i) <- d;
            cycles.(i) <- r.counters.cycles;
            instrs.(i) <- Counters.total_instrs r.counters
          end;
          check
            (r.outcome = Vm.Finished 0L && String.equal d digests.(i))
            (Printf.sprintf "fuzz case %d: %s %s" i (outcome_string r)
               (String.concat "; " r.output))
        | Error e -> check false (Printf.sprintf "fuzz case %d: %s" i e));
        units)
  in
  (* the digest covers the program text: no two cases may share one *)
  let distinct = Hashtbl.create n in
  Array.iter (fun d -> Hashtbl.replace distinct d ()) digests;
  check (Hashtbl.length distinct = n) "fuzz: generated programs are not distinct";
  let replay () =
    List.concat
      (List.init n (fun i ->
           let name = Printf.sprintf "fuzz/c%d" i and prog = (case i).prog in
           List.map
             (fun (variant, config) ->
               Job.make ~name:(name ^ "/" ^ variant) ~group:name ~variant ~config prog)
             Oracle.configs))
  in
  {
    setup_s = fresh_setup ~opts "fuzz";
    times;
    peak_heap_mb = times.heap;
    sim_instrs = Array.fold_left ( + ) 0 instrs;
    sim_cycles = Array.fold_left ( + ) 0 cycles;
    replay;
  }

(* ---- regen -------------------------------------------------------------- *)

let experiments_exe () =
  let exe =
    List.fold_left Filename.concat
      (Filename.dirname Sys.executable_name)
      [ Filename.parent_dir_name; "bin"; "ifp_experiments.exe" ]
  in
  if not (Sys.file_exists exe) then
    failwith (exe ^ " is missing: build bin/ifp_experiments.exe first");
  exe

let first_group re s =
  match Str.search_forward (Str.regexp re) s 0 with
  | _ -> Some (Str.matched_group 1 s)
  | exception Not_found -> None

type run = { secs : float; heap_mb : float; log : string }

(* One ifp_experiments process on one domain. The child's GC prints its
   peak heap at exit (OCAMLRUNPARAM v=0x400); the result is checked for
   exit status 0, no failed campaign job and, when [expected] is given,
   stdout byte-identical to it. *)
let experiments ~tag ~cache_dir ?expected target =
  let exe = experiments_exe () in
  let path ext = tmp_path (tag ^ ext) in
  let args =
    [ target; "-j"; "1"; "--cache-dir"; cache_dir; "--log"; path ".jsonl";
      "--bench-out"; path ".json" ]
  in
  let env =
    Unix.environment () |> Array.to_list
    |> List.filter (fun v -> not (String.starts_with ~prefix:"OCAMLRUNPARAM=" v))
    |> List.cons "OCAMLRUNPARAM=v=0x400"
    |> Array.of_list
  in
  let open_out ext =
    Unix.openfile (path ext) [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let out = open_out ".out" and err = open_out ".err" in
  let status, secs = run_child ~env ~stdout:out ~stderr:err exe args in
  Unix.close out;
  Unix.close err;
  check (status = Unix.WEXITED 0) (tag ^ ": ifp_experiments did not exit 0");
  let bench = try read_file (path ".json") with Sys_error _ -> "" in
  check
    (first_group {|"failed": *\([0-9]+\)|} bench = Some "0")
    (tag ^ ": campaign reports failed jobs");
  Option.iter
    (fun want ->
      check
        (String.equal (read_file (path ".out")) want)
        (tag ^ ": stdout differs from experiments_output.txt"))
    expected;
  let heap_words =
    Option.bind (first_group {|top_heap_words: \([0-9]+\)|} (read_file (path ".err")))
      int_of_string_opt
  in
  { secs; heap_mb = heap_mb (Option.value heap_words ~default:0); log = path ".jsonl" }

(* simulated (instructions, cycles) summed over every job the run executed *)
let log_totals log =
  let lines, _ = Events.read_lines ~path:log in
  let field name line =
    Option.value ~default:0
      (Option.bind (first_group ("\"" ^ name ^ {|":\([0-9]+\)|}) line) int_of_string_opt)
  in
  List.fold_left
    (fun (i, c) line ->
      if first_group {|"event":"\([a-z_]+\)"|} line = Some "job_finish" then
        (i + field "instrs" line, c + field "cycles" line)
      else (i, c))
    (0, 0) lines

(* The timed work is the paper regeneration itself: a cold run into a
   fresh cache, VM-bound, the one job of [timed_passes]. Set-up is the same
   command on the last cold run's filled cache: start-up, job list,
   digests, cache reads and the tables, everything but execution. The
   simulated totals must repeat on every cold run; the heap peak is the
   largest of them. *)
let regen ~opts =
  let target = if opts.smoke then "table2" else "all" in
  let expected = if opts.smoke then None else Some (read_file "experiments_output.txt") in
  let cache_dir = tmp_path "cache" in
  let first = ref None and heap = ref 0. in
  let run tag () =
    let r = experiments ~tag ~cache_dir ?expected target in
    (r, r.secs)
  in
  let cold ~traced _ =
    remove cache_dir;
    let r, units =
      in_probe_units (fun () -> maybe_span ~traced ~job:"regen" "regen.run" (run "cold"))
    in
    let totals = log_totals r.log in
    (match !first with
    | None -> first := Some totals
    | Some t -> check (t = totals) "regen: simulated totals changed between cold runs");
    heap := Float.max !heap r.heap_mb;
    units
  in
  let times = timed_passes ~opts 1 cold in
  let setup_s = setup_median (run "warm") in
  let sim_instrs, sim_cycles = Option.get !first in
  {
    setup_s;
    times;
    peak_heap_mb = !heap;
    sim_instrs;
    sim_cycles;
    (* the baseline, subheap and wrapped rows of Fig. 10: 54 of the
       campaign's 815 jobs and most of the cold run's job time *)
    replay =
      (fun () ->
        jobs_of ~opts
          (List.filter
             (fun (v, _) -> List.mem v [ "baseline"; "subheap"; "wrapped" ])
             Report.variants));
  }

(* ---- the traced run's replay --------------------------------------------- *)

type sim = {
  mutable instrs : int;
  mutable cycles : int;
  mutable promotes : int;
  mutable promotes_valid : int;
  mutable promotes_inserted : int;
  mutable mallocs : int;
  mutable frees : int;
  mutable footprint : int;
  mutable cache_accesses : int;
  mutable cache_misses : int;
}

(* One (program, config) run once more, under each engine, then the
   campaign layer's digest and a cache round trip of its result. Counts
   are taken from the run under the config's own engine. *)
let replay s cache (j : Job.t) =
  let span name f = Span.record ~job:j.name name f in
  span "job" (fun () ->
      let digest = span "campaign.digest" (fun () -> Job.digest j) in
      let runs =
        List.map
          (fun e ->
            ( e,
              span
                ("vm.engine." ^ Engines.to_string e)
                (fun () -> Engines.run ~config:{ j.config with engine = e } j.prog)
            ))
          Engines.all
      in
      let r = List.assoc j.config.engine runs in
      let sig_r = Oracle.result_sig r in
      check
        (List.for_all (fun (_, r') -> String.equal (Oracle.result_sig r') sig_r) runs)
        (j.name ^ ": engines disagree");
      let c = r.counters in
      s.instrs <- s.instrs + Counters.total_instrs c;
      s.cycles <- s.cycles + c.cycles;
      s.promotes <- s.promotes + Counters.promotes_total c;
      s.promotes_valid <- s.promotes_valid + c.promotes_valid;
      Option.iter
        (fun (rep : Instrument.report) ->
          s.promotes_inserted <- s.promotes_inserted + rep.promotes_inserted)
        r.instrument_report;
      s.mallocs <- s.mallocs + r.alloc_stats.n_allocs;
      s.frees <- s.frees + r.alloc_stats.n_frees;
      s.footprint <- s.footprint + r.mem_footprint;
      s.cache_accesses <- s.cache_accesses + r.cache_accesses;
      s.cache_misses <- s.cache_misses + r.cache_misses;
      span "campaign.cache_store" (fun () ->
          Rcache.store cache ~digest ~job_name:j.name r);
      check
        (match span "campaign.cache_find" (fun () -> Rcache.find cache ~digest) with
        | Rcache.Hit r' -> String.equal (Oracle.result_sig r') sig_r
        | _ -> false)
        (j.name ^ ": cache round trip changed the result"))

let per_layer ~opts (m : measured) =
  let s =
    {
      instrs = 0; cycles = 0; promotes = 0; promotes_valid = 0;
      promotes_inserted = 0; mallocs = 0; frees = 0; footprint = 0;
      cache_accesses = 0; cache_misses = 0;
    }
  in
  let cache = Rcache.create ~dir:(tmp_path "replay-cache") () in
  List.iter (replay s cache) (m.replay ());
  List.iter (fun (name, unit, v) -> metric name unit v) (Micro.all ~smoke:opts.smoke);
  let span = Span.summarize () in
  let count name v = metric name "count" (float_of_int v) in
  let us_per_call name =
    let t = span name in
    1e6 *. t.self /. float_of_int (max 1 t.calls)
  in
  count "compiler.promotes_inserted" s.promotes_inserted;
  List.iter
    (fun e ->
      let name = "vm.engine." ^ Engines.to_string e in
      metric ("vm.engine_s." ^ Engines.to_string e) "s" (span name).self)
    Engines.all;
  metric "vm.ns_per_sim_instr" "ns"
    (1e9 *. (span ("vm.engine." ^ Engines.to_string Vm.default_config.engine)).self
    /. float_of_int (max 1 s.instrs));
  count "vm.sim_instrs" s.instrs;
  count "vm.sim_cycles" s.cycles;
  count "metadata.promotes" s.promotes;
  count "metadata.promotes_valid" s.promotes_valid;
  count "alloc.mallocs" s.mallocs;
  count "alloc.frees" s.frees;
  metric "alloc.footprint_bytes" "bytes" (float_of_int s.footprint);
  count "machine.cache_accesses" s.cache_accesses;
  count "machine.cache_misses" s.cache_misses;
  metric "machine.cache_miss_ratio" "ratio"
    (float_of_int s.cache_misses /. float_of_int (max 1 s.cache_accesses));
  metric "campaign.digest_us" "us" (us_per_call "campaign.digest");
  metric "campaign.cache_store_us" "us" (us_per_call "campaign.cache_store");
  metric "campaign.cache_find_us" "us" (us_per_call "campaign.cache_find");
  metric "trace.overhead_pct" "%" (100. *. ((m.times.traced /. m.times.untraced) -. 1.));
  metric "host.probe_us" "us" (1e6 *. median !probe_log)

(* ---- one workload -------------------------------------------------------- *)

(* --setup-only: the child of [fresh_setup] *)
let build_inputs opts = function
  | "exec_ifp" -> ignore (jobs_of ~opts ifp_configs)
  | "exec_baseline" -> ignore (jobs_of ~opts baseline_configs)
  | _ -> ()

let run_workload opts name =
  let m =
    match name with
    | "exec_ifp" -> exec ~opts name ifp_configs
    | "exec_baseline" -> exec ~opts name baseline_configs
    | "fuzz" -> fuzz ~opts
    | "regen" -> regen ~opts
    | w -> failwith ("unknown workload " ^ w)
  in
  if opts.trace then begin
    per_layer ~opts m;
    Span.write ~path:(Filename.concat out_dir ("spans-" ^ name ^ ".json"))
  end
  else begin
    metric "setup_s" "s" (m.setup_s *. probe_nominal_s);
    metric "work_s" "s" (m.times.untraced *. probe_nominal_s);
    metric "peak_heap_mb" "MiB" m.peak_heap_mb;
    metric "sim_mcycles" "Mcycles" (float_of_int m.sim_cycles /. 1e6);
    metric "sim_ipc" "instr/cycle"
      (float_of_int m.sim_instrs /. float_of_int (max 1 m.sim_cycles))
  end;
  let metrics = List.rev !printed in
  List.iter (fun (n, u, v) -> Printf.printf "%s %s %.6g %s\n" name n v u) metrics;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (!failed = 0) !attempted !failed
    (String.concat ", "
       (List.map
          (fun (n, u, v) -> Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" n v u)
          metrics));
  if !failed > 0 then exit 1

(* ---- every workload, each in its own process ------------------------------ *)

(* (name, unit) of every metric in one section of BENCHMARK.json (read
   from the working directory), which lists each metric as
   {"name": ..., "unit": ..., ...} *)
let declared section =
  let text = read_file "BENCHMARK.json" in
  let start = Str.search_forward (Str.regexp_string (Printf.sprintf "%S" section)) text 0 in
  let stop =
    match Str.search_forward (Str.regexp {|"[a-z_]+": \[|}) text (start + 1) with
    | i -> i
    | exception Not_found -> String.length text
  in
  let re = Str.regexp {|{"name": "\([^"]+\)", "unit": "\([^"]+\)"|} in
  let rec scan pos acc =
    match Str.search_forward re text pos with
    | i when i < stop -> scan (i + 1) ((Str.matched_group 1 text, Str.matched_group 2 text) :: acc)
    | _ | (exception Not_found) -> List.sort compare acc
  in
  scan start []

let run_all opts =
  let ok = ref true in
  let fail fmt = Printf.ksprintf (fun s -> ok := false; prerr_endline s) fmt in
  List.iter
    (fun trace ->
      let want = declared (if trace then "per_layer" else "end_to_end") in
      List.iter
        (fun w ->
          let args =
            [ "--workload"; w; "--seed"; string_of_int opts.seed;
              "--seconds"; Printf.sprintf "%g" opts.seconds;
              "--trace"; (if trace then "1" else "0") ]
            @ if opts.smoke then [ "--smoke" ] else []
          in
          let ic =
            Unix.open_process_args_in Sys.executable_name
              (Array.of_list (Sys.executable_name :: args))
          in
          let lines = In_channel.input_all ic |> String.split_on_char '\n' in
          let got =
            List.filter_map
              (fun l ->
                match String.split_on_char ' ' l with
                | [ w'; name; _; unit ] when String.equal w' w -> Some (name, unit)
                | _ -> None)
              lines
            |> List.sort compare
          in
          List.iter (fun l -> if l <> "" then print_endline l) lines;
          if Unix.close_process_in ic <> Unix.WEXITED 0 then
            fail "%s (trace %b): exited non-zero" w trace;
          if got <> want then
            fail "%s (trace %b): printed metrics differ from BENCHMARK.json" w trace)
        workloads)
    [ false; true ];
  if not !ok then exit 1

(* ---- command line ---------------------------------------------------------- *)

let usage () =
  prerr_endline
    "usage: main.exe [--workload W] [--seed S] [--seconds T] [--trace 0|1] [--smoke]\n\
    \  W: exec_ifp exec_baseline fuzz regen (default: all, each in its own\n\
    \     process, checked against ./BENCHMARK.json)\n\
    \  --setup-only: build W's inputs and exit (the set-up measurement)";
  exit 2

let parse_opts argv =
  let o =
    ref
      {
        workload = None; seed = 42; seconds = 15.; trace = false; smoke = false;
        setup_only = false;
      }
  in
  let rec go = function
    | "--workload" :: w :: rest when List.mem w workloads ->
      o := { !o with workload = Some w };
      go rest
    | "--seed" :: s :: rest when int_of_string_opt s <> None ->
      o := { !o with seed = int_of_string s };
      go rest
    | "--seconds" :: s :: rest when Option.is_some (float_of_string_opt s) ->
      o := { !o with seconds = float_of_string s };
      go rest
    | "--trace" :: (("0" | "1") as t) :: rest ->
      o := { !o with trace = t = "1" };
      go rest
    | "--smoke" :: rest ->
      o := { !o with smoke = true };
      go rest
    | "--setup-only" :: rest ->
      o := { !o with setup_only = true };
      go rest
    | [] -> !o
    | _ -> usage ()
  in
  go (List.tl (Array.to_list argv))

let () =
  let opts = parse_opts Sys.argv in
  match opts.workload with
  | Some w when opts.setup_only -> build_inputs opts w
  | Some w -> run_workload opts w
  | None -> run_all opts
