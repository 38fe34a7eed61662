(* Run one program under chosen configurations and print its dynamic
   statistics. TARGET is a workload name, `all` (every workload, the
   default), or a path to a MiniC source file (`.minic`; syntax in
   lib/compiler/parser.mli), which is parsed and typechecked first —
   a located parse, lex or type error exits 1.

   Usage: ifp_run [TARGET] [OPTION]... (`--help` lists the options)

   -c names a configuration of Report.configs (repeatable; default
   baseline, subheap and wrapped). --engine picks the execution engine
   (default closure — Vm.default_config.engine); all engines give
   identical results. -v prints detailed counters; --dump-ir and
   --dump-instrumented print the program before and after the IFP
   instrumentation pass; --trace prints the first 64 IFP events of each
   run. *)

open Core
module Cli = Ifp_campaign.Cli

type opts = {
  mutable target : string;
  mutable configs : string list;
  mutable engine : Vm.engine;
  mutable verbose : bool;
  mutable dump_ir : bool;
  mutable dump_instrumented : bool;
  mutable trace : bool;
}

let parse_opts () =
  let o =
    {
      target = "all";
      configs = [];
      engine = Vm.default_config.engine;
      verbose = false;
      dump_ir = false;
      dump_instrumented = false;
      trace = false;
    }
  in
  let config =
    Arg.Symbol (List.map fst Report.configs, fun c -> o.configs <- o.configs @ [ c ])
  in
  let verbose = Arg.Unit (fun () -> o.verbose <- true) in
  Cli.parse
    ~usage:
      "usage: ifp_run [TARGET] [OPTION]...\n\
       TARGET: a workload name, all (default), or a FILE.minic"
    [
      ( "-c",
        config,
        " Run under this configuration (repeatable; default baseline, subheap, wrapped)" );
      ("--variant", config, " Same as -c");
      ( "--engine",
        Arg.Symbol (Engines.names, fun e -> o.engine <- Option.get (Engines.of_string e)),
        " Execution engine (default " ^ Engines.to_string o.engine ^ ")" );
      ("-v", verbose, " Print detailed counters");
      ("--verbose", verbose, " Same as -v");
      ("--dump-ir", Arg.Unit (fun () -> o.dump_ir <- true), " Print the program");
      ( "--dump-instrumented",
        Arg.Unit (fun () -> o.dump_instrumented <- true),
        " Print the program after IFP instrumentation" );
      ( "--trace",
        Arg.Unit (fun () -> o.trace <- true),
        " Print the first 64 IFP events of each run" );
    ]
    (fun t -> o.target <- t);
  if o.configs = [] then o.configs <- [ "baseline"; "subheap"; "wrapped" ];
  o

let programs target =
  let workload name =
    match Ifp_workloads.Registry.find name with
    | Some wl -> (name, Lazy.force wl.Ifp_workloads.Workload.prog)
    | None ->
      Printf.eprintf "unknown workload %s (have: %s)\n" name
        (String.concat ", " Ifp_workloads.Registry.names);
      exit 1
  in
  if Filename.check_suffix target ".minic" then [ (target, snd (Cli.load_minic target)) ]
  else if target = "all" then List.map workload Ifp_workloads.Registry.names
  else [ workload target ]

let print_details (r : Vm.result) =
  let c = r.counters in
  Printf.printf "  objects: %d global (%d LT), %d local (%d LT), %d heap (%d LT)\n"
    c.global_objs c.global_objs_layout c.local_objs c.local_objs_layout
    c.heap_objs c.heap_objs_layout;
  Printf.printf "  promote mix: valid=%d null=%d legacy=%d poisoned=%d invalid=%d subobj=%d narrows ok/fail=%d/%d\n"
    c.promotes_valid c.promotes_null c.promotes_legacy c.promotes_poisoned
    c.promotes_invalid_meta c.promotes_subobj c.narrows_ok c.narrows_failed;
  Printf.printf "  ifp mix:";
  List.iter
    (fun k ->
      let n = Counters.ifp_count c k in
      if n > 0 then Printf.printf " %s=%d" (Insn.mnemonic k) n)
    Insn.all;
  print_newline ();
  Printf.printf "  cache: %d accesses, %d misses; alloc: %s\n" r.cache_accesses
    r.cache_misses
    (String.concat ", "
       (List.map (fun (k, n) -> Printf.sprintf "%s=%d" k n) r.alloc_extra))

let run_one opts name prog cfg_name =
  let config = List.assoc cfg_name Report.configs in
  let config =
    { config with
      Vm.engine = opts.engine;
      trace_limit = (if opts.trace then 64 else config.Vm.trace_limit) }
  in
  let t0 = Sys.time () in
  let r = Vm.run ~config prog in
  let dt = Sys.time () -. t0 in
  List.iter (fun e -> print_endline ("trace: " ^ Vm.trace_event_string e)) r.trace;
  List.iter print_endline r.output;
  let c = r.counters in
  Printf.printf "%-12s %-11s %-22s instrs=%-10d cycles=%-11d promotes=%-8d valid=%-8d footprint=%-9d (%.2fs)\n"
    name cfg_name (Vm.outcome_string r.outcome)
    (Counters.total_instrs c) c.cycles
    (Counters.ifp_count c Insn.Promote)
    c.promotes_valid r.mem_footprint dt;
  if opts.verbose then print_details r

let () =
  let opts = parse_opts () in
  List.iter
    (fun (name, prog) ->
      if opts.dump_ir then print_string (Ir_pp.program_to_string prog);
      if opts.dump_instrumented then
        print_string (Ir_pp.program_to_string (fst (Instrument.run prog)));
      List.iter (run_one opts name prog) opts.configs)
    (programs opts.target)
