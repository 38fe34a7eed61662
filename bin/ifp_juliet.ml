(* Functional evaluation (paper §5.1): run the generated Juliet-style
   suite under the chosen configuration and report detection results.

   The 2x72 case programs are dispatched through the lib/campaign engine,
   so runs parallelise with -j N and repeat invocations hit the on-disk
   result cache.

   SIGINT/SIGTERM drain gracefully (exit 130); an interrupted or killed
   run resumes by re-running the same command with the same --cache-dir.

   Usage: ifp_juliet [CONFIG] [-v] [-j N] [--cache-dir DIR] [--no-cache]
                     [--log FILE] *)

module Job = Ifp_campaign.Job
module Engine = Ifp_campaign.Engine
module Rcache = Ifp_campaign.Cache
module Events = Ifp_campaign.Events
module Cli = Ifp_campaign.Cli

let config_of = function
  | "baseline" -> Core.Vm.baseline
  | "subheap" -> Core.Vm.ifp_subheap
  | "wrapped" -> Core.Vm.ifp_wrapped
  | "subheap-np" -> Core.Vm.no_promote Core.Vm.Alloc_subheap
  | "wrapped-np" -> Core.Vm.no_promote Core.Vm.Alloc_wrapped
  | "mixed" -> Core.Vm.ifp_mixed
  | "no-narrowing" -> Core.Vm.no_narrowing Core.Vm.Alloc_subheap
  | s ->
    Printf.eprintf "unknown config %s\n" s;
    exit 1

let () =
  let cfg_name = ref "wrapped" in
  let verbose = ref false in
  let workers = ref 1 in
  let cache_dir = ref (Some ".ifp-cache") in
  let log_path = ref None in
  let argv = Sys.argv in
  let i = ref 1 in
  let next what =
    incr i;
    if !i >= Array.length argv then (
      Printf.eprintf "missing argument to %s\n" what;
      exit 1)
    else argv.(!i)
  in
  while !i < Array.length argv do
    (match argv.(!i) with
    | "-v" -> verbose := true
    | "-j" | "--jobs" ->
      workers := max 1 (int_of_string_opt (next "-j") |> Option.value ~default:1)
    | "--cache-dir" -> cache_dir := Some (next "--cache-dir")
    | "--no-cache" -> cache_dir := None
    | "--log" -> log_path := Some (next "--log")
    | s when String.length s > 0 && s.[0] = '-' ->
      Printf.eprintf "unknown option %s\n" s;
      exit 1
    | name -> cfg_name := name);
    incr i
  done;
  let cfg_name = !cfg_name in
  let config = config_of cfg_name in
  let cases = Ifp_juliet.Juliet.all_cases () in
  let job_name (c : Ifp_juliet.Juliet.case) which =
    Printf.sprintf "juliet/%s/%s/%s" c.id which cfg_name
  in
  let jobs =
    List.concat_map
      (fun (c : Ifp_juliet.Juliet.case) ->
        [
          Job.make ~name:(job_name c "bad") ~group:("juliet/" ^ c.id)
            ~variant:cfg_name ~config c.bad;
          Job.make ~name:(job_name c "good") ~group:("juliet/" ^ c.id)
            ~variant:cfg_name ~config c.good;
        ])
      cases
  in
  let cache = Option.map (fun dir -> Rcache.create ~dir ()) !cache_dir in
  let stop = Cli.install_interrupt () in
  let log = Cli.open_log ~path:!log_path in
  let outcomes, stats = Engine.run ~workers:!workers ?cache ~log ~stop jobs in
  if stats.Engine.interrupted then
    Cli.finish
      ~hint:
        (Printf.sprintf "juliet campaign interrupted: %d skipped; %s"
           stats.Engine.skipped (Cli.resume_hint cache))
      ~log ~interrupted:true ();
  let tbl = Hashtbl.create 256 in
  Array.iter
    (fun (o : Engine.outcome) -> Hashtbl.replace tbl o.job.Job.name o)
    outcomes;
  let run (c : Ifp_juliet.Juliet.case) which =
    let name = job_name c (match which with `Bad -> "bad" | `Good -> "good") in
    match Hashtbl.find_opt tbl name with
    | Some { Engine.result = Some r; _ } -> r
    | Some { Engine.status = Engine.Failed why; _ } ->
      Core.Report.aborted_result ("campaign job failed: " ^ why)
    | _ ->
      Core.Vm.run ~config (match which with `Bad -> c.bad | `Good -> c.good)
  in
  let outcomes, summary = Ifp_juliet.Juliet.run_all_with ~run cases in
  Printf.printf "Juliet-style functional evaluation under %s (%d cases)\n\n"
    cfg_name summary.total;
  List.iter
    (fun (o : Ifp_juliet.Juliet.outcome) ->
      let verdict =
        match o.bad_verdict with
        | Ifp_juliet.Juliet.Detected -> "DETECTED"
        | Silent -> "missed"
        | False_positive -> "false-positive"
        | Error m -> "ERROR " ^ m
      in
      if !verbose || o.bad_verdict <> Ifp_juliet.Juliet.Detected || not o.good_ok
      then
        Printf.printf "  %-36s bad: %-10s good: %s\n" o.case.id verdict
          (if o.good_ok then "ok" else "FAILED"))
    outcomes;
  Printf.printf
    "\nsummary: %d/%d bad cases detected, %d missed, %d good-case failures\n"
    summary.detected summary.total summary.missed summary.good_failures;
  Cli.finish ~log ~interrupted:false ()
