(* Run one program under chosen configurations and print its dynamic
   statistics. TARGET is a workload name, `all` (every workload, the
   default), or a path to a MiniC source file (`.minic`; syntax in
   lib/compiler/parser.mli), which is parsed and typechecked first —
   a located parse, lex or type error exits 1.

   Usage: ifp_run [TARGET] [-c CONFIG]... [--engine ENGINE] [-v]
                  [--dump-ir] [--dump-instrumented] [--trace]

   -c names a configuration of Report.configs (repeatable; default
   baseline, subheap and wrapped). --engine picks the execution engine
   (vm | vm-ref | closure, default vm); all engines give identical
   results. -v prints detailed counters; --dump-ir and
   --dump-instrumented print the program before and after the IFP
   instrumentation pass; --trace prints the first 64 IFP events of each
   run. *)

open Core

type opts = {
  target : string;
  configs : string list;
  engine : Vm.engine;
  verbose : bool;
  dump_ir : bool;
  dump_instrumented : bool;
  trace : bool;
}

let usage () =
  prerr_endline
    "usage: ifp_run [TARGET] [-c CONFIG]... [--engine ENGINE] [-v]\n\
    \               [--dump-ir] [--dump-instrumented] [--trace]\n\
     TARGET: a workload name, all (default), or a FILE.minic";
  Printf.eprintf "CONFIG: %s\nENGINE: %s\n"
    (String.concat " | " (List.map fst Report.configs))
    (String.concat " | " Engines.names);
  exit 1

let parse_opts argv =
  let o =
    ref
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
  let i = ref 1 in
  let next what =
    incr i;
    if !i >= Array.length argv then (
      Printf.eprintf "missing argument to %s\n" what;
      usage ())
    else argv.(!i)
  in
  while !i < Array.length argv do
    (match argv.(!i) with
    | "-c" | "--variant" ->
      let c = next "-c" in
      if not (List.mem_assoc c Report.configs) then (
        Printf.eprintf "unknown config %s\n" c;
        usage ());
      o := { !o with configs = !o.configs @ [ c ] }
    | "--engine" -> (
      let e = next "--engine" in
      match Engines.of_string e with
      | Some engine -> o := { !o with engine }
      | None ->
        Printf.eprintf "unknown engine %s\n" e;
        usage ())
    | "-v" | "--verbose" -> o := { !o with verbose = true }
    | "--dump-ir" -> o := { !o with dump_ir = true }
    | "--dump-instrumented" -> o := { !o with dump_instrumented = true }
    | "--trace" -> o := { !o with trace = true }
    | "-h" | "--help" -> usage ()
    | s when String.length s > 0 && s.[0] = '-' ->
      Printf.eprintf "unknown option %s\n" s;
      usage ()
    | target -> o := { !o with target });
    incr i
  done;
  if !o.configs = [] then { !o with configs = [ "baseline"; "subheap"; "wrapped" ] }
  else !o

let load_minic file =
  match Frontend.load file with
  | Ok (_, prog) -> prog
  | Error m ->
    prerr_endline m;
    exit 1

let programs target =
  let workload name =
    match Ifp_workloads.Registry.find name with
    | Some wl -> (name, Lazy.force wl.Ifp_workloads.Workload.prog)
    | None ->
      Printf.eprintf "unknown workload %s (have: %s)\n" name
        (String.concat ", " Ifp_workloads.Registry.names);
      exit 1
  in
  if Filename.check_suffix target ".minic" then [ (target, load_minic target) ]
  else if target = "all" then List.map workload Ifp_workloads.Registry.names
  else [ workload target ]

let print_trace (r : Vm.result) =
  List.iter
    (function
      | Vm.T_promote { ptr; outcome; bounds } ->
        Printf.printf "trace: promote 0x%Lx -> %s %s\n" ptr outcome bounds
      | Vm.T_register { what; ptr; size } ->
        Printf.printf "trace: register %s 0x%Lx (%d B)\n" what ptr size
      | Vm.T_deregister { what; ptr } ->
        Printf.printf "trace: deregister %s 0x%Lx\n" what ptr
      | Vm.T_trap msg -> Printf.printf "trace: TRAP %s\n" msg)
    r.trace

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
  let r = Engines.run ~config prog in
  let dt = Sys.time () -. t0 in
  print_trace r;
  List.iter print_endline r.output;
  let c = r.counters in
  Printf.printf "%-12s %-11s %-22s instrs=%-10d cycles=%-11d promotes=%-8d valid=%-8d footprint=%-9d (%.2fs)\n"
    name cfg_name
    (match r.outcome with
    | Vm.Finished x -> Printf.sprintf "ret=%Ld" x
    | Vm.Trapped t -> "TRAP " ^ Trap.to_string t
    | Vm.Aborted m -> "ABORT " ^ Vm.abort_reason_string m)
    (Counters.total_instrs c) c.cycles
    (Counters.ifp_count c Insn.Promote)
    c.promotes_valid r.mem_footprint dt;
  if opts.verbose then print_details r

let () =
  let opts = parse_opts Sys.argv in
  List.iter
    (fun (name, prog) ->
      if opts.dump_ir then print_string (Ir_pp.program_to_string prog);
      if opts.dump_instrumented then
        print_string (Ir_pp.program_to_string (fst (Instrument.run prog)));
      List.iter (run_one opts name prog) opts.configs)
    (programs opts.target)
