(* Fault-injection campaign: corrupt the simulated machine mid-run and
   measure what each variant detects (the §3.3/§4.3 security argument,
   quantified).

   For every fault class x variant, N seeded plans are run against the
   pointer-chasing victim workload; each faulted run is compared to the
   variant's golden (uninjected) run and classified as
   detected / silent corruption / benign / not-fired. IFP variants are
   expected to detect every fired tag or metadata corruption; Baseline
   has no defense and is expected to show silent corruption for heap
   smashes.

   All runs go through the lib/campaign engine (parallel workers, result
   cache — fault plans are part of the job digest — JSONL log, per-job
   watchdog). The coverage table is printed on stdout and the per-class
   x per-variant counts are written to BENCH_faults.json.

   SIGINT/SIGTERM drain gracefully (exit 130); an interrupted or killed
   campaign resumes by re-running the same command with the same
   --cache-dir.

   Usage: ifp_faults [--seeds N] [-j N] [--cache-dir DIR] [--no-cache]
                     [--log FILE] [--no-log] [--timeout SECS]
                     [--out FILE] *)

open Core
module Job = Ifp_campaign.Job
module Engine = Ifp_campaign.Engine
module Rcache = Ifp_campaign.Cache
module Events = Ifp_campaign.Events
module Cli = Ifp_campaign.Cli
module Fault = Ifp_faultinject.Fault
module Classify = Ifp_faultinject.Classify
module Victim = Ifp_faultinject.Victim
module Table = Ifp_util.Table

(* ---------------- options ---------------- *)

type opts = {
  seeds : int;
  workers : int;
  cache_dir : string option;
  log_path : string option;
  out : string;
  timeout : float option;
}

let default_opts =
  {
    seeds = 20;
    workers = 1;
    cache_dir = Some ".ifp-cache";
    log_path = Some "faults.jsonl";
    out = "BENCH_faults.json";
    timeout = Some 60.0;
  }

let usage () =
  prerr_endline
    "usage: ifp_faults [--seeds N] [-j N] [--cache-dir DIR] [--no-cache]\n\
    \                  [--log FILE] [--no-log] [--timeout SECS]\n\
    \                  [--out FILE]";
  exit 1

let parse_opts argv =
  let o = ref default_opts in
  let i = ref 1 in
  let next what =
    incr i;
    if !i >= Array.length argv then (
      Printf.eprintf "missing argument to %s\n" what;
      usage ())
    else argv.(!i)
  in
  let int_arg what =
    let s = next what in
    match int_of_string_opt s with
    | Some n when n >= 0 -> n
    | _ ->
      Printf.eprintf "bad %s argument %S\n" what s;
      usage ()
  in
  while !i < Array.length argv do
    (match argv.(!i) with
    | "--seeds" -> o := { !o with seeds = max 1 (int_arg "--seeds") }
    | "-j" | "--jobs" -> o := { !o with workers = max 1 (int_arg "-j") }
    | "--cache-dir" -> o := { !o with cache_dir = Some (next "--cache-dir") }
    | "--no-cache" -> o := { !o with cache_dir = None }
    | "--log" -> o := { !o with log_path = Some (next "--log") }
    | "--no-log" -> o := { !o with log_path = None }
    | "--timeout" -> (
      let s = next "--timeout" in
      match float_of_string_opt s with
      | Some t when t > 0.0 -> o := { !o with timeout = Some t }
      | Some _ -> o := { !o with timeout = None }
      | None ->
        Printf.eprintf "bad --timeout argument %S\n" s;
        usage ())
    | "--out" -> o := { !o with out = next "--out" }
    | "-h" | "--help" -> usage ()
    | s ->
      Printf.eprintf "unknown option %s\n" s;
      usage ());
    incr i
  done;
  !o

(* ---------------- the job matrix ---------------- *)

(* wrapped allocation gives every heap object MAC'd local-offset
   metadata, so the metadata-targeting classes always have a target *)
let variants =
  [
    ("baseline", Vm.baseline);
    ("ifp", Vm.ifp_wrapped);
    ("ifp-np", Vm.no_promote Vm.Alloc_wrapped);
  ]

(* The temporal classes run their own matrix: the heap-retiring victim
   (so the program issues the colliding free itself) against spatial IFP
   — measuring what a spatial-only design sees of a temporal fault — and
   both temporal IFP allocators. The spatial matrix above is untouched:
   its classes, victim and configs are exactly the pre-temporal ones. *)
let is_temporal_class = function
  | Fault.Uaf_use | Fault.Double_free -> true
  | _ -> false

let spatial_classes =
  List.filter (fun c -> not (is_temporal_class c)) Fault.all_classes

let temporal_classes = List.filter is_temporal_class Fault.all_classes

let temporal_variants =
  [
    ("baseline", Vm.baseline);
    ("ifp", Vm.ifp_wrapped);
    ("ifp-t", { Vm.ifp_wrapped with Vm.temporal = true });
    ("ifp-sub-t", { Vm.ifp_subheap with Vm.temporal = true });
  ]

let golden_name vname = "golden/" ^ vname
let temporal_golden_name vname = "golden-t/" ^ vname

let fault_name cls vname seed =
  Printf.sprintf "fault/%s/%s/%d" (Fault.class_name cls) vname seed

let jobs ~seeds =
  let prog = Victim.program () in
  let tprog = Victim.temporal_program () in
  let golden =
    List.map
      (fun (vname, config) ->
        Job.make ~name:(golden_name vname) ~group:"golden" ~variant:vname
          ~config prog)
      variants
    @ List.map
        (fun (vname, config) ->
          Job.make
            ~name:(temporal_golden_name vname)
            ~group:"golden" ~variant:vname ~config tprog)
        temporal_variants
  in
  let faulted_matrix classes variants prog =
    List.concat_map
      (fun cls ->
        List.concat_map
          (fun (vname, config) ->
            List.init seeds (fun seed ->
                let plan = Fault.default_plan cls ~seed:(Int64.of_int seed) in
                Job.make
                  ~name:(fault_name cls vname seed)
                  ~group:("fault/" ^ Fault.class_name cls)
                  ~variant:vname
                  ~config:{ config with Vm.fault_plan = Some plan }
                  prog))
          variants)
      classes
  in
  golden
  @ faulted_matrix spatial_classes variants prog
  @ faulted_matrix temporal_classes temporal_variants tprog

(* ---------------- classification & tally ---------------- *)

let observed (r : Vm.result) =
  {
    Classify.outcome =
      (match r.Vm.outcome with
      | Vm.Finished n -> `Finished n
      | Vm.Trapped t -> `Trapped t
      | Vm.Aborted m -> `Aborted (Vm.abort_reason_string m));
    output = r.Vm.output;
  }

type tally = {
  mutable detected : int;  (** trapped with a class-appropriate trap *)
  mutable detected_other : int;  (** trapped, but not the expected trap *)
  mutable silent : int;
  mutable benign : int;
  mutable not_fired : int;
  mutable aborted : int;
  mutable engine_failed : int;  (** Failed / Timed_out at the engine level *)
}

let fresh_tally () =
  { detected = 0; detected_other = 0; silent = 0; benign = 0; not_fired = 0;
    aborted = 0; engine_failed = 0 }

let count tally = function
  | Classify.Detected { expected = true; _ } ->
    tally.detected <- tally.detected + 1
  | Classify.Detected { expected = false; _ } ->
    tally.detected_other <- tally.detected_other + 1
  | Classify.Silent_corruption -> tally.silent <- tally.silent + 1
  | Classify.Benign -> tally.benign <- tally.benign + 1
  | Classify.Not_fired -> tally.not_fired <- tally.not_fired + 1
  | Classify.Aborted _ -> tally.aborted <- tally.aborted + 1

(* detection rate over the runs where the fault actually landed *)
let fired_runs t =
  t.detected + t.detected_other + t.silent + t.benign + t.aborted

let detection_rate t =
  let fired = fired_runs t in
  if fired = 0 then None
  else Some (float_of_int (t.detected + t.detected_other) /. float_of_int fired)

(* ---------------- driver ---------------- *)

let () =
  let opts = parse_opts Sys.argv in
  let all_jobs = jobs ~seeds:opts.seeds in
  let cache = Option.map (fun dir -> Rcache.create ~dir ()) opts.cache_dir in
  let stop = Cli.install_interrupt () in
  let log = Cli.open_log ~path:opts.log_path in
  let outcomes, stats =
    Engine.run ~workers:opts.workers ?cache ~log ~stop
      ?job_timeout:opts.timeout all_jobs
  in
  if stats.Engine.interrupted then
    Cli.finish
      ~hint:
        (Printf.sprintf "fault campaign interrupted: %d skipped; %s"
           stats.Engine.skipped (Cli.resume_hint cache))
      ~log ~interrupted:true ();
  let by_name = Hashtbl.create (Array.length outcomes * 2) in
  Array.iter
    (fun (o : Engine.outcome) -> Hashtbl.replace by_name o.Engine.job.Job.name o)
    outcomes;
  let result_of name =
    match Hashtbl.find_opt by_name name with
    | Some { Engine.result = Some r; _ } -> Some r
    | _ -> None
  in
  let goldens_of golden_name variants =
    List.map
      (fun (vname, _) ->
        match result_of (golden_name vname) with
        | Some r -> (vname, observed r)
        | None ->
          Printf.eprintf "fatal: golden run for %s did not complete\n" vname;
          exit 1)
      variants
  in
  let goldens = goldens_of golden_name variants in
  let tgoldens = goldens_of temporal_golden_name temporal_variants in
  (* classify every (class, variant, seed) cell *)
  let tallies_of classes variants goldens =
    List.map
      (fun cls ->
        ( cls,
          List.map
            (fun (vname, _) ->
              let t = fresh_tally () in
              for seed = 0 to opts.seeds - 1 do
                match Hashtbl.find_opt by_name (fault_name cls vname seed) with
                | Some { Engine.result = Some r; _ } ->
                  let fired = r.Vm.fault_injections <> [] in
                  count t
                    (Classify.classify ~cls ~fired
                       ~golden:(List.assoc vname goldens)
                       ~faulted:(observed r))
                | _ -> t.engine_failed <- t.engine_failed + 1
              done;
              (vname, t))
            variants ))
      classes
  in
  let tallies = tallies_of spatial_classes variants goldens in
  let ttallies = tallies_of temporal_classes temporal_variants tgoldens in
  (* ---------------- report ---------------- *)
  Printf.printf
    "== Fault-injection coverage: %d seeds per class x variant, victim %s ==\n"
    opts.seeds Victim.name;
  let header =
    [ "fault class"; "variant"; "detected"; "other-trap"; "silent"; "benign";
      "not-fired"; "aborted"; "failed"; "detection" ]
  in
  let rows_of tallies =
    List.concat_map
      (fun (cls, per_variant) ->
        List.map
          (fun (vname, t) ->
            [
              Fault.class_name cls;
              vname;
              string_of_int t.detected;
              string_of_int t.detected_other;
              string_of_int t.silent;
              string_of_int t.benign;
              string_of_int t.not_fired;
              string_of_int t.aborted;
              string_of_int t.engine_failed;
              (match detection_rate t with
              | None -> "-"
              | Some r -> Printf.sprintf "%.0f%%" (100.0 *. r));
            ])
          per_variant)
      tallies
  in
  Table.print ~header (rows_of tallies);
  Printf.printf
    "\n== Temporal fault coverage: %d seeds per class x variant, victim %s ==\n"
    opts.seeds Victim.temporal_name;
  Table.print ~header (rows_of ttallies);
  Printf.printf
    "\ncampaign: %d jobs, %d completed, %d failed, %d timed out, %d cache \
     hits (%.1fs)\n"
    stats.Engine.jobs stats.Engine.completed stats.Engine.failed
    stats.Engine.timed_out stats.Engine.cache_hits stats.Engine.wall_seconds;
  (* ---------------- aggregate (BENCH_faults.json) ---------------- *)
  let open Events in
  let tally_json t =
    Obj
      [
        ("detected", Int t.detected);
        ("detected_other_trap", Int t.detected_other);
        ("silent_corruption", Int t.silent);
        ("benign", Int t.benign);
        ("not_fired", Int t.not_fired);
        ("aborted", Int t.aborted);
        ("engine_failed", Int t.engine_failed);
        ( "detection_rate",
          match detection_rate t with None -> Null | Some r -> Float r );
      ]
  in
  Events.write_json_file ~path:opts.out
    (Obj
       [
         ("bench", String "ifp_faults");
         ("victim", String Victim.name);
         ("seeds", Int opts.seeds);
         ("model_digest", String Job.model_digest);
         ("campaign", Obj (Engine.stats_json stats));
         ( "classes",
           Obj
             (List.map
                (fun (cls, per_variant) ->
                  ( Fault.class_name cls,
                    Obj
                      (List.map
                         (fun (vname, t) -> (vname, tally_json t))
                         per_variant) ))
                tallies) );
         ("temporal_victim", String Victim.temporal_name);
         ( "temporal_classes",
           Obj
             (List.map
                (fun (cls, per_variant) ->
                  ( Fault.class_name cls,
                    Obj
                      (List.map
                         (fun (vname, t) -> (vname, tally_json t))
                         per_variant) ))
                ttallies) );
       ]);
  Printf.printf "wrote %s\n" opts.out;
  (* explicit exit: a Timed_out job's abandoned domain must not delay
     process death once the log and aggregate are flushed *)
  Cli.finish ~log ~interrupted:false ()
