(* Regenerate every table and figure of the paper's evaluation (§5),
   and run the repo's other fixed experiment matrices:
     table2    — metadata-scheme constraints (Table 2)
     table4    — dynamic event counts (Table 4)
     fig10     — runtime overhead, subheap/wrapped +/- no-promote (Fig. 10)
     fig11     — dynamic IFP-instruction mix (Fig. 11)
     fig12     — memory overhead (Fig. 12)
     fig13     — hardware area model (Fig. 13)
     baselines — comparator schemes on the same runs (Table 1 / §5.2.2)
     juliet    — functional evaluation summary (§5.1)
     all       — everything above
     faults    — fault-injection coverage (§3.3/§4.3 attacker, measured)
     temporal  — temporal-mode detection, overhead, area and comparators

   The job matrices and the artifacts live in lib/artifacts
   (Ifp_artifacts.Artifacts); this driver runs the selected target's
   jobs through the lib/campaign engine (content-addressed jobs on
   `-j N` worker domains, served from the on-disk result cache when
   unchanged, observable through a JSONL event log whose `job_finish`
   lines carry each job's outcome), prints the artifacts, writes their
   aggregate to BENCH_experiments.json and checks their claims. The
   tables printed on stdout are byte-identical for any `-j`.

   Exit code: 0 when every claim of every printed artifact holds; 1
   when one does not (each failed claim is named on stderr, after the
   tables and the aggregate are written); 130 when interrupted.

   The cache is also the crash-recovery story: each result is renamed
   into it before its job is reported done, so after a
   SIGKILL/OOM/power loss, re-running the same command (same
   --cache-dir) serves the finished jobs as cache hits and runs only the
   rest — converging to tables and aggregates identical to an
   uninterrupted run. SIGINT/SIGTERM drain gracefully: running jobs
   finish and are cached, pending jobs are skipped, and the process
   exits 130.

   Usage: ifp_experiments [TARGET] [OPTION]... (`--help` lists the
   options) *)

module Artifact = Ifp_artifacts.Artifact
module Artifacts = Ifp_artifacts.Artifacts
module Job = Ifp_campaign.Job
module Engine = Ifp_campaign.Engine
module Rcache = Ifp_campaign.Cache
module Events = Ifp_campaign.Events
module Cli = Ifp_campaign.Cli

(* ---------------- options ---------------- *)

type opts = {
  mutable target : string;
  campaign : Cli.campaign;
  mutable bench_out : string;
  mutable chaos_kill_after : int option;
  mutable seeds : int;  (** fault plans per class x variant ([faults]) *)
}

let parse_opts () =
  let o =
    {
      target = "all";
      campaign =
        { Cli.workers = 1; cache_dir = Some ".ifp-cache"; log_path = Some "campaign.jsonl" };
      bench_out = "BENCH_experiments.json";
      chaos_kill_after = None;
      seeds = 20;
    }
  in
  Cli.parse
    ~usage:
      ("usage: ifp_experiments [TARGET] [OPTION]...\n\
        TARGET: " ^ String.concat " " Artifacts.targets ^ " (default all)\n\
        An interrupted run resumes by re-running it with the same --cache-dir.")
    (Cli.campaign_specs o.campaign
    @ [
        ( "--bench-out",
          Arg.String (fun f -> o.bench_out <- f),
          "FILE Run aggregate (default " ^ o.bench_out ^ ")" );
        ( "--seeds",
          Cli.nat (fun n -> o.seeds <- max 1 n),
          Printf.sprintf "N Fault plans per class x variant, faults only (default %d)"
            o.seeds );
        ( "--chaos-kill-after",
          Cli.nat (fun n -> o.chaos_kill_after <- Some n),
          "N Test hook: SIGKILL self after N completed jobs" );
      ])
    (fun t ->
      if List.mem t Artifacts.targets then o.target <- t
      else raise (Arg.Bad ("unknown experiment " ^ t)));
  o

(* ---------------- driver ---------------- *)

(* A cold run keeps every result until the tables print, while each job
   allocates its simulated pages in one burst. At the default space
   overhead (120%) the heap peak then depends on where the major cycle
   happens to be when a large job starts: identical runs peaked anywhere
   between 11 and 17 MiB. At 40% it stays near the live set (9.4-10.2
   MiB for a cold `all -j 1`), for about 2% more time. A run served
   entirely from the cache never executes a job and keeps the default. *)
let gc_tightened = Atomic.make false

let runner job =
  if not (Atomic.exchange gc_tightened true) then
    Gc.set { (Gc.get ()) with space_overhead = 40 };
  Engine.default_runner job

let () =
  let opts = parse_opts () in
  let jobs = Artifacts.jobs ~seeds:opts.seeds opts.target in
  let cache = Option.map (fun dir -> Rcache.create ~dir ()) opts.campaign.cache_dir in
  let stop = Cli.install_interrupt () in
  let log = Cli.open_log ~path:opts.campaign.log_path in
  let on_job_done =
    match opts.chaos_kill_after with
    | Some n -> Ifp_campaign.Chaos.arm_kill ~after:n
    | None -> fun _ -> ()
  in
  let outcomes, stats =
    Engine.run ~workers:opts.campaign.workers ?cache ~log ~stop ~on_job_done ~runner
      jobs
  in
  if stats.Engine.interrupted then
    Cli.finish
      ~hint:
        (Printf.sprintf
           "campaign interrupted: %d done, %d skipped; %s"
           (stats.Engine.completed + stats.Engine.failed)
           stats.Engine.skipped (Cli.resume_hint cache))
      ~log ~interrupted:true ();
  let results = Hashtbl.create (Array.length outcomes * 2) in
  Array.iter
    (fun (o : Engine.outcome) -> Hashtbl.replace results o.job.Job.name o.result)
    outcomes;
  (* every lookup names a job of the target's matrix; a miss is a bug in
     that matrix, never something to paper over with a run here *)
  let result name =
    match Hashtbl.find_opt results name with
    | Some r -> r
    | None -> invalid_arg ("no campaign job named " ^ name)
  in
  let artifacts =
    try Artifacts.build ~seeds:opts.seeds opts.target result
    with Failure msg ->
      prerr_endline ("fatal: " ^ msg);
      Events.close log;
      exit 1
  in
  List.iter (fun a -> print_string (Artifact.render a)) artifacts;
  Events.write_json_file ~path:opts.bench_out
    (Obj
       [
         ("bench", String "ifp_experiments");
         ("target", String opts.target);
         ("model_digest", String Job.model_digest);
         ("campaign", Obj (Engine.stats_json stats));
         ("events_log", match opts.campaign.log_path with Some p -> String p | None -> Null);
         ("artifacts", List (List.map Artifact.to_json artifacts));
       ]);
  match Artifact.failed artifacts with
  | [] -> Cli.finish ~log ~interrupted:false ()
  | failed ->
    List.iter
      (fun ((a : Artifact.t), (c : Artifact.claim)) ->
        Printf.eprintf "FAIL: claim \"%s\" of %s (%s)\n" c.name a.id a.title)
      failed;
    Events.close log;
    exit 1
