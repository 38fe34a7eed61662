(* Victim campaign binary for the chaos integration tests (the host-layer
   analogue of faultinject's pointer_maze victim): a small, fully
   deterministic job matrix driven through the real engine with a real
   result cache, so the parent test can SIGKILL/SIGTERM an actual process
   at a seeded point and assert that re-running against the same cache
   converges to byte-identical output.

   Usage: chaos_child --out FILE [--cache DIR] [-j N] [--kill-after N]
                      [--slow-ms M]

   The result table is written to --out only when the campaign runs to
   completion; an interrupted run exits 130 (or dies raw on SIGKILL)
   leaving only the cache entries of its finished jobs behind. *)

open Core
module Job = Ifp_campaign.Job
module Engine = Ifp_campaign.Engine
module Rcache = Ifp_campaign.Cache
module Chaos = Ifp_campaign.Chaos
module Cli = Ifp_campaign.Cli

let n_jobs = 30

(* each job is a distinct program (distinct digest) with a deterministic
   cycle count, so the rendered table detects any wrong-result mixup *)
let job i =
  let prog =
    Ir.program ~tenv:Ctype.empty_tenv ~globals:[]
      [ Ir.func "main" [] Ctype.I64 [ Ir.Return (Some (Ir.i (i * 7))) ] ]
  in
  Job.make
    ~name:(Printf.sprintf "chaos/%02d" i)
    ~group:"chaos" ~variant:"subheap" ~config:Vm.ifp_subheap prog

let () =
  let out = ref None in
  let cache_dir = ref None in
  let workers = ref 1 in
  let kill_after = ref None in
  let slow_ms = ref 0 in
  let argv = Sys.argv in
  let i = ref 1 in
  let next what =
    incr i;
    if !i >= Array.length argv then (
      Printf.eprintf "chaos_child: missing argument to %s\n" what;
      exit 2)
    else argv.(!i)
  in
  while !i < Array.length argv do
    (match argv.(!i) with
    | "--out" -> out := Some (next "--out")
    | "--cache" -> cache_dir := Some (next "--cache")
    | "-j" -> workers := max 1 (int_of_string (next "-j"))
    | "--kill-after" -> kill_after := Some (int_of_string (next "--kill-after"))
    | "--slow-ms" -> slow_ms := max 0 (int_of_string (next "--slow-ms"))
    | s ->
      Printf.eprintf "chaos_child: unknown option %s\n" s;
      exit 2);
    incr i
  done;
  let jobs = List.init n_jobs job in
  let cache = Option.map (fun dir -> Rcache.create ~dir ()) !cache_dir in
  let stop = Cli.install_interrupt () in
  let on_job_done =
    match !kill_after with
    | Some n -> Chaos.arm_kill ~after:n
    | None -> fun _ -> ()
  in
  let runner (j : Job.t) =
    if !slow_ms > 0 then Unix.sleepf (float_of_int !slow_ms /. 1000.0);
    Vm.run ~config:j.Job.config j.Job.prog
  in
  let outcomes, stats =
    Engine.run ~workers:!workers ?cache ~stop ~on_job_done ~runner jobs
  in
  if stats.Engine.interrupted then
    Cli.finish ~hint:"chaos_child: interrupted" ~log:Ifp_campaign.Events.null
      ~interrupted:true ();
  let render (o : Engine.outcome) =
    match (o.Engine.status, o.Engine.result) with
    | Engine.Done, Some r ->
      Printf.sprintf "%s done cycles=%d" o.Engine.job.Job.name
        r.Vm.counters.Counters.cycles
    | Engine.Done, None -> o.Engine.job.Job.name ^ " done <no result>"
    | Engine.Failed why, _ -> o.Engine.job.Job.name ^ " failed: " ^ why
    | Engine.Timed_out, _ -> o.Engine.job.Job.name ^ " timed_out"
    | Engine.Skipped, _ -> o.Engine.job.Job.name ^ " skipped"
  in
  let table =
    String.concat "\n" (Array.to_list (Array.map render outcomes)) ^ "\n"
  in
  (match !out with
  | None -> print_string table
  | Some path ->
    let oc = open_out path in
    output_string oc table;
    close_out oc);
  Cli.finish ~log:Ifp_campaign.Events.null ~interrupted:false ()
