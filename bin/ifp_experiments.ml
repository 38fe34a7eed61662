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
     temporal  — temporal-mode detection, overhead, area and comparators;
                 exits 1 when the temporal gate fails

   All VM runs are dispatched through the lib/campaign engine: the
   selected target's job matrix is expanded into content-addressed jobs,
   executed on `-j N` worker domains, served from the on-disk result
   cache when unchanged, and observable through a JSONL event log (each
   job's `job_finish` line carries its outcome, e.g. the per-case Juliet
   verdicts). The tables printed on stdout are byte-identical for any
   `-j`; an end-of-run aggregate is written to BENCH_experiments.json.

   The cache is also the crash-recovery story: each result is renamed
   into it before its job is reported done, so after a
   SIGKILL/OOM/power loss, re-running the same command (same
   --cache-dir) serves the finished jobs as cache hits and runs only the
   rest — converging to tables and aggregates identical to an
   uninterrupted run. SIGINT/SIGTERM drain gracefully: running jobs
   finish and are cached, pending jobs are skipped, and the process
   exits nonzero.

   Usage: ifp_experiments [TARGET] [OPTION]... (`--help` lists the
   options) *)

open Core
module W = Ifp_workloads.Workload
module Registry = Ifp_workloads.Registry
module Table = Ifp_util.Table
module Job = Ifp_campaign.Job
module Engine = Ifp_campaign.Engine
module Rcache = Ifp_campaign.Cache
module Events = Ifp_campaign.Events
module Cli = Ifp_campaign.Cli
module J = Ifp_juliet.Juliet
module B = Ifp_baselines.Baselines
module H = Ifp_hwmodel.Hwmodel
module Fault = Ifp_faultinject.Fault
module Classify = Ifp_faultinject.Classify
module Victim = Ifp_faultinject.Victim

(* ---------------- options ---------------- *)

let targets =
  [ "all"; "table2"; "table4"; "fig10"; "fig11"; "fig12"; "fig13"; "baselines";
    "extensions"; "juliet"; "faults"; "temporal" ]

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
        TARGET: " ^ String.concat " " targets ^ " (default all)\n\
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
      if List.mem t targets then o.target <- t
      else raise (Arg.Bad ("unknown experiment " ^ t)));
  o

(* ---------------- the job matrix ---------------- *)

(* configurations by their command-line names, shared with ifp_run *)
let config name = List.assoc name Report.configs
let named names = List.map (fun n -> (n, config n)) names

let row_jobs () =
  List.concat_map
    (fun (wl : W.t) ->
      let prog = Lazy.force wl.prog in
      List.map
        (fun (vname, config) ->
          Job.make
            ~name:(wl.name ^ "/" ^ vname)
            ~group:wl.name ~variant:vname ~config prog)
        Report.variants)
    Registry.all

let juliet_cases = lazy (J.all_cases ())
let juliet_configs = named [ "baseline"; "wrapped"; "subheap"; "subheap-np" ]

(* the §5.3 walker ablation compares full narrowing against none *)
let juliet_ext_configs = named [ "subheap"; "no-narrowing" ]

let juliet_job_name case_id which cname =
  Printf.sprintf "juliet/%s/%s/%s" case_id which cname

let juliet_jobs cases cfgs =
  List.concat_map
    (fun (c : J.case) ->
      List.concat_map
        (fun (cname, config) ->
          [
            Job.make
              ~name:(juliet_job_name c.id "bad" cname)
              ~group:("juliet/" ^ c.id) ~variant:cname ~config c.bad;
            Job.make
              ~name:(juliet_job_name c.id "good" cname)
              ~group:("juliet/" ^ c.id) ~variant:cname ~config c.good;
          ])
        cfgs)
    (Lazy.force cases)

let infer_workloads = [ "wolfcrypt-dh"; "health"; "coremark" ]

let extensions_jobs () =
  let wl name = Option.get (Registry.find name) in
  let mixed =
    List.concat_map
      (fun name ->
        let prog = Lazy.force (wl name).W.prog in
        List.map
          (fun (vname, config) ->
            Job.make ~name:(name ^ "/" ^ vname) ~group:name ~variant:vname
              ~config prog)
          (named [ "subheap"; "mixed"; "wrapped" ]))
      [ "em3d"; "treeadd" ]
  in
  let infer =
    List.concat_map
      (fun name ->
        let prog = Lazy.force (wl name).W.prog in
        [
          Job.make ~name:(name ^ "/subheap") ~group:name ~variant:"subheap"
            ~config:(config "subheap") prog;
          Job.make ~name:(name ^ "/subheap-infer") ~group:name
            ~variant:"subheap-infer" ~config:(config "infer-types") prog;
        ])
      infer_workloads
  in
  mixed @ infer @ juliet_jobs juliet_cases juliet_ext_configs

(* Fault injection: the spatial classes against the pointer-chasing
   victim under these variants. Wrapped allocation gives every heap
   object MAC'd local-offset metadata, so the metadata-targeting classes
   always have a target. *)
let fault_variants =
  [
    ("baseline", config "baseline");
    ("ifp", config "wrapped");
    ("ifp-np", config "wrapped-np");
  ]

(* The temporal classes run their own matrix: the heap-retiring victim
   (so the program issues the colliding free itself) against spatial IFP
   — measuring what a spatial-only design sees of a temporal fault — and
   both temporal IFP allocators. *)
let temporal_on name = { (config name) with Vm.temporal = true }

let fault_temporal_variants =
  [
    ("baseline", config "baseline");
    ("ifp", config "wrapped");
    ("ifp-t", temporal_on "wrapped");
    ("ifp-sub-t", temporal_on "subheap");
  ]

let is_temporal_class = function
  | Fault.Uaf_use | Fault.Double_free -> true
  | _ -> false

let spatial_classes =
  List.filter (fun c -> not (is_temporal_class c)) Fault.all_classes

let temporal_classes = List.filter is_temporal_class Fault.all_classes
let golden_name vname = "golden/" ^ vname
let temporal_golden_name vname = "golden-t/" ^ vname

let fault_name cls vname seed =
  Printf.sprintf "fault/%s/%s/%d" (Fault.class_name cls) vname seed

(* A fault plan can wedge the victim, so every fault job, golden runs
   included, gets a cycle budget far above the victims' need (the
   largest run is about 131k cycles): a wedged run ends as a cached
   budget abort in the table's [aborted] column. *)
let fault_max_cycles = 2_000_000

let fault_jobs ~seeds =
  let prog = Victim.program () in
  let tprog = Victim.temporal_program () in
  let bounded config = { config with Vm.max_cycles = fault_max_cycles } in
  let golden name_of variants prog =
    List.map
      (fun (vname, config) ->
        Job.make ~name:(name_of vname) ~group:"golden" ~variant:vname
          ~config:(bounded config) prog)
      variants
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
                  ~config:{ (bounded config) with Vm.fault_plan = Some plan }
                  prog))
          variants)
      classes
  in
  golden golden_name fault_variants prog
  @ golden temporal_golden_name fault_temporal_variants tprog
  @ faulted_matrix spatial_classes fault_variants prog
  @ faulted_matrix temporal_classes fault_temporal_variants tprog

(* Temporal mode: the Juliet temporal families and the overhead
   workloads under spatial and temporal IFP *)
let temporal_cases = lazy (J.temporal_cases ())

let temporal_workloads =
  [ "treeadd"; "bisort"; "mst"; "health"; "perimeter"; "ft"; "ks"; "anagram" ]

let temporal_configs =
  [
    ("baseline", config "baseline");
    ("ifp-subheap", config "subheap");
    ("ifp-subheap-t", temporal_on "subheap");
    ("ifp-wrapped", config "wrapped");
    ("ifp-wrapped-t", temporal_on "wrapped");
  ]

let temporal_job_name wname cname = "temporal/" ^ wname ^ "/" ^ cname

let temporal_jobs () =
  juliet_jobs temporal_cases temporal_configs
  @ List.concat_map
      (fun name ->
        let prog = Lazy.force (Option.get (Registry.find name)).W.prog in
        List.map
          (fun (cname, config) ->
            Job.make
              ~name:(temporal_job_name name cname)
              ~group:("temporal/" ^ name) ~variant:cname ~config prog)
          temporal_configs)
      temporal_workloads

let jobs_for_target ~seeds = function
  | "table2" | "fig13" -> []
  | "table4" | "fig10" | "fig11" | "fig12" | "baselines" -> row_jobs ()
  | "extensions" -> extensions_jobs ()
  | "juliet" -> juliet_jobs juliet_cases juliet_configs
  | "all" ->
    row_jobs () @ extensions_jobs () @ juliet_jobs juliet_cases juliet_configs
  | "faults" -> fault_jobs ~seeds
  | "temporal" -> temporal_jobs ()
  | t -> invalid_arg ("unknown experiment " ^ t)

(* identical (program, config) work submitted under two labels — e.g.
   em3d/subheap appearing in both the row matrix and the extensions set —
   is deduplicated by name before dispatch *)
let dedupe_jobs jobs =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun (j : Job.t) ->
      if Hashtbl.mem seen j.name then false
      else (
        Hashtbl.add seen j.name ();
        true))
    jobs

(* ---------------- campaign-backed result lookup ---------------- *)

type ctx = { outcomes : (string, Engine.outcome) Hashtbl.t }

(* every lookup names a job of the selected target's matrix; a miss is
   a bug in that matrix, never something to paper over with a run here *)
let outcome_of ctx name =
  match Hashtbl.find_opt ctx.outcomes name with
  | Some o -> o
  | None -> invalid_arg ("no campaign job named " ^ name)

(* serve a result from the campaign; a job that failed at the engine
   level yields a visible Aborted placeholder *)
let result_of ctx name =
  match outcome_of ctx name with
  | { Engine.result = Some r; _ } -> r
  | { Engine.status = Engine.Failed why; _ } ->
    Report.aborted_result ("campaign job failed: " ^ why)
  | { Engine.status = Engine.Skipped; _ } ->
    (* only reachable if rendering proceeds despite an interrupt *)
    Report.aborted_result "campaign job skipped (interrupted)"
  | { Engine.result = None; _ } ->
    Report.aborted_result "campaign job produced no result"

let row_of ctx (wl : W.t) =
  Report.of_results ~name:wl.name ~lookup:(fun vname ->
      result_of ctx (wl.name ^ "/" ^ vname))

let juliet_run_all ctx cases cname =
  J.run_all_with
    ~run:(fun (c : J.case) which ->
      let which = match which with `Bad -> "bad" | `Good -> "good" in
      result_of ctx (juliet_job_name c.id which cname))
    (Lazy.force cases)

let fmt_x r = Printf.sprintf "%.2fx" r
let fmt_pct r = Ifp_util.Stats.percent r

let detection_label = function
  | B.Full -> "yes"
  | B.Object_only -> "object only"
  | B.Probabilistic p -> Printf.sprintf "prob. %.0f%%" (100.0 *. p)
  | B.None_ -> "no"

let sci n =
  if n = 0 then "0"
  else if n < 100_000 then string_of_int n
  else Printf.sprintf "%.2e" (float_of_int n)

(* ---------------- Table 2 ---------------- *)

let table2 () =
  print_endline "== Table 2: object metadata schemes (constraints measured) ==";
  let rows =
    [
      [ "local offset"; "base granule-aligned"; "<= 1008 B"; "unlimited";
        "small objects, locals" ];
      [ "subheap"; "pow2-aligned blocks"; "block-capacity bound";
        "16 control regs / block sizes"; "heap objects" ];
      [ "global table"; "none"; "none";
        Printf.sprintf "%d rows" (Tag.global_table_entries - 1);
        "large globals, fallback" ];
    ]
  in
  Table.print
    ~header:[ "scheme"; "placement constraint"; "max object size";
              "object count limit"; "use scenario" ]
    rows;
  (* verify the constants against the implementation *)
  Printf.printf
    "\n(tag budget: 16 bits = 2 poison + 2 selector + 12 scheme/subobject;\n\
    \ local offset: %d B granule, %d B max object, %d layout elements;\n\
    \ subheap: %d subobject-index values; global table: %d entries)\n\n"
    Tag.granule Tag.local_offset_max_object Tag.local_offset_max_elements
    Tag.subheap_max_elements Tag.global_table_entries

(* ---------------- Table 4 ---------------- *)

let table4 ctx =
  print_endline
    "== Table 4: object instrumentation, valid promotes, dynamic instructions ==";
  let header =
    [ "benchmark"; "glob(LT%)"; "local(LT%)"; "heap(LT%)"; "valid promote";
      "(% of promotes)"; "baseline instrs"; "subheap"; "wrapped"; "status" ]
  in
  let body =
    List.map
      (fun (wl : W.t) ->
        let r = row_of ctx wl in
        let c = r.subheap.Vm.counters in
        let pct a b = if b = 0 then "-" else Printf.sprintf "%d%%" (100 * a / b) in
        let objs n lt = if n = 0 then "0" else sci n ^ " (" ^ pct lt n ^ ")" in
        let promotes = Counters.promotes_total c in
        let base_instrs = Counters.total_instrs r.baseline.Vm.counters in
        [
          wl.name;
          objs c.global_objs c.global_objs_layout;
          objs c.local_objs c.local_objs_layout;
          objs c.heap_objs c.heap_objs_layout;
          sci c.promotes_valid;
          pct c.promotes_valid promotes;
          sci base_instrs;
          fmt_x (Report.instr_overhead ~baseline:r.baseline r.subheap);
          fmt_x (Report.instr_overhead ~baseline:r.baseline r.wrapped);
          Report.status_string r;
        ])
      Registry.all
  in
  Table.print ~header body;
  let geo sel =
    Ifp_util.Stats.geomean
      (List.map
         (fun (wl : W.t) ->
           let r = row_of ctx wl in
           Report.instr_overhead ~baseline:r.baseline (sel r))
         Registry.all)
  in
  Printf.printf
    "\ngeo-mean dynamic instruction increase: subheap %s, wrapped %s\n\
     (paper: subheap +5%%, wrapped +14%%)\n\n"
    (fmt_pct (geo (fun r -> r.Report.subheap)))
    (fmt_pct (geo (fun r -> r.Report.wrapped)))

(* ---------------- Fig 10 ---------------- *)

let fig10 ctx =
  print_endline "== Figure 10: runtime overhead (cycles vs baseline) ==";
  let header =
    [ "benchmark"; "subheap"; "wrapped"; "subheap-np"; "wrapped-np"; "status" ]
  in
  let body =
    List.map
      (fun (wl : W.t) ->
        let r = row_of ctx wl in
        let ov x = fmt_pct (Report.runtime_overhead ~baseline:r.baseline x) in
        [ wl.name; ov r.subheap; ov r.wrapped; ov r.subheap_np;
          ov r.wrapped_np; Report.status_string r ])
      Registry.all
  in
  Table.print ~header body;
  let geo sel =
    Ifp_util.Stats.geomean
      (List.map
         (fun (wl : W.t) ->
           let r = row_of ctx wl in
           Report.runtime_overhead ~baseline:r.baseline (sel r))
         Registry.all)
  in
  Printf.printf
    "\ngeo-mean runtime overhead: subheap %s, wrapped %s (paper: ~12%%, ~24%%)\n\
     no-promote controls:       subheap %s, wrapped %s\n\n"
    (fmt_pct (geo (fun r -> r.Report.subheap)))
    (fmt_pct (geo (fun r -> r.Report.wrapped)))
    (fmt_pct (geo (fun r -> r.Report.subheap_np)))
    (fmt_pct (geo (fun r -> r.Report.wrapped_np)))

(* ---------------- Fig 11 ---------------- *)

let fig11 ctx =
  print_endline
    "== Figure 11: dynamic counts of In-Fat Pointer instructions (subheap) ==";
  let header =
    [ "benchmark"; "promote"; "ifp arithmetic"; "bounds ld/st"; "% of baseline" ]
  in
  let body =
    List.map
      (fun (wl : W.t) ->
        let r = row_of ctx wl in
        let c = r.subheap.Vm.counters in
        let n k = Counters.ifp_count c k in
        let promote = n Insn.Promote in
        let arith =
          n Insn.Ifpadd + n Insn.Ifpidx + n Insn.Ifpbnd + n Insn.Ifpchk
          + n Insn.Ifpextract + n Insn.Ifpmd + n Insn.Ifpmac
        in
        let ldst = n Insn.Ldbnd + n Insn.Stbnd in
        let basei = Counters.total_instrs r.baseline.Vm.counters in
        [
          wl.name; sci promote; sci arith; sci ldst;
          Printf.sprintf "%.1f%%"
            (100.0 *. float_of_int (promote + arith + ldst) /. float_of_int basei);
        ])
      Registry.all
  in
  Table.print ~header body;
  print_newline ()

(* ---------------- Fig 12 ---------------- *)

(* the paper excludes programs whose footprint is below `time -v`'s
   resolution (<6 MB there); at our scaled-down sizes the equivalent
   cutoff is 16 KiB of baseline footprint *)
let fig12_cutoff = 16 * 1024

let fig12 ctx =
  print_endline "== Figure 12: memory overhead (max footprint vs baseline) ==";
  let header = [ "benchmark"; "subheap"; "wrapped" ] in
  let included, excluded =
    List.partition
      (fun (wl : W.t) ->
        (row_of ctx wl).baseline.Vm.mem_footprint >= fig12_cutoff)
      Registry.all
  in
  let fig12_excluded = List.map (fun (wl : W.t) -> wl.W.name) excluded in
  let body =
    List.map
      (fun (wl : W.t) ->
        let r = row_of ctx wl in
        let ov x = fmt_pct (Report.memory_overhead ~baseline:r.baseline x) in
        [ wl.name; ov r.subheap; ov r.wrapped ])
      included
  in
  Table.print ~header body;
  let geo sel =
    Ifp_util.Stats.geomean
      (List.map
         (fun (wl : W.t) ->
           let r = row_of ctx wl in
           Report.memory_overhead ~baseline:r.baseline (sel r))
         included)
  in
  Printf.printf
    "\ngeo-mean memory overhead: subheap %s, wrapped %s (paper: -6%%, +21%%)\n\
     (excluded, as in the paper: %s)\n\n"
    (fmt_pct (geo (fun r -> r.Report.subheap)))
    (fmt_pct (geo (fun r -> r.Report.wrapped)))
    (String.concat ", " fig12_excluded)

(* ---------------- Fig 13 ---------------- *)

let fig13 () =
  print_endline "== Figure 13: LUT increase in the modified processor (model) ==";
  let open H in
  Table.print
    ~header:[ "component"; "stage"; "LUTs"; "FFs" ]
    (List.map
       (fun c ->
         [ c.cname; stage_to_string c.stage; string_of_int c.luts;
           string_of_int c.ffs ])
       components);
  Printf.printf "\nper-stage added LUTs:\n";
  List.iter
    (fun (s, l) -> Printf.printf "  %-16s %d\n" (stage_to_string s) l)
    (by_stage full);
  Printf.printf
    "\ntotals: %d -> %d LUTs (+%.0f%%), %d -> %d FFs\n\
     (paper: 37,088 -> 59,261 LUTs, +60%%; 21,993 -> 32,545 FFs, +48%%)\n"
    vanilla_luts (total_luts full) (lut_increase_pct full) vanilla_ffs
    (total_ffs full);
  let no_walker = { full with layout_walker = false } in
  let no_bregs = { full with bounds_registers = false } in
  Printf.printf
    "\nablations (§5.3):\n\
    \  drop layout walker:    +%d LUTs (+%.0f%%) — loses hardware narrowing\n\
    \  drop bounds registers: +%d LUTs (+%.0f%%) — the largest single saving\n\n"
    (added_luts no_walker) (lut_increase_pct no_walker) (added_luts no_bregs)
    (lut_increase_pct no_bregs)

(* ---------------- Baselines ---------------- *)

let baselines ctx =
  print_endline
    "== Comparators (Table 1 / §5.2.2): projected overheads, geo-mean over all benchmarks ==";
  let header =
    [ "scheme"; "instr overhead"; "runtime overhead"; "memory"; "subobject?" ]
  in
  let geo f =
    Ifp_util.Stats.geomean
      (List.map (fun (wl : W.t) -> f (row_of ctx wl)) Registry.all)
  in
  let comparator_rows =
    List.map
      (fun model ->
        let gi =
          geo (fun r ->
              (B.project model ~baseline:r.Report.baseline
                 ~ifp:r.Report.subheap)
                .instr_overhead)
        in
        let gc =
          geo (fun r ->
              (B.project model ~baseline:r.Report.baseline
                 ~ifp:r.Report.subheap)
                .cycle_overhead)
        in
        [ model.B.name; fmt_x gi; fmt_x gc;
          fmt_x model.memory_factor; detection_label model.subobject ])
      B.all
  in
  (* memory ratios only over benchmarks above the footprint cutoff, as
     in Fig. 12 *)
  let geo_mem sel =
    Ifp_util.Stats.geomean
      (List.filter_map
         (fun (wl : W.t) ->
           let r = row_of ctx wl in
           if r.Report.baseline.Vm.mem_footprint < fig12_cutoff then None
           else Some (Report.memory_overhead ~baseline:r.baseline (sel r)))
         Registry.all)
  in
  let ifp_rows =
    [
      [ "In-Fat Pointer (subheap)";
        fmt_x (geo (fun r -> Report.instr_overhead ~baseline:r.Report.baseline r.subheap));
        fmt_x (geo (fun r -> Report.runtime_overhead ~baseline:r.Report.baseline r.subheap));
        fmt_x (geo_mem (fun r -> r.Report.subheap));
        "yes" ];
      [ "In-Fat Pointer (wrapped)";
        fmt_x (geo (fun r -> Report.instr_overhead ~baseline:r.Report.baseline r.wrapped));
        fmt_x (geo (fun r -> Report.runtime_overhead ~baseline:r.Report.baseline r.wrapped));
        fmt_x (geo_mem (fun r -> r.Report.wrapped));
        "yes" ];
    ]
  in
  Table.print ~header (comparator_rows @ ifp_rows);
  print_newline ()

(* ---------------- Extensions / ablations ---------------- *)

let extensions ctx =
  print_endline
    "== Extensions & ablations (paper future work / §5.3 trade-offs) ==";
  (* A1a: drop the layout-table walker -> object granularity only *)
  let _, s_full = juliet_run_all ctx juliet_cases "subheap" in
  let _, s_nonarrow = juliet_run_all ctx juliet_cases "no-narrowing" in
  Printf.printf
    "layout-walker ablation (saves %d LUTs in the area model):\n\
    \  full narrowing: %d/%d detected; walker disabled: %d/%d\n\
    \  -> the difference is exactly the intra-object cases only hardware\n\
    \     narrowing can catch after a pointer's round trip through memory\n\n"
    3059 s_full.detected s_full.total s_nonarrow.detected s_nonarrow.total;
  (* A1b: mixed allocator fixes the subheap's array-fragmentation cost *)
  let em3d = Option.get (Registry.find "em3d") in
  let treeadd = Option.get (Registry.find "treeadd") in
  Printf.printf "mixed allocator (runtime scheme selection, §4.2.1 future work):\n";
  List.iter
    (fun (wl : W.t) ->
      let res vname = result_of ctx (wl.name ^ "/" ^ vname) in
      let sub = res "subheap" in
      let mix = res "mixed" in
      let wrap = res "wrapped" in
      let fp (r : Vm.result) = r.Vm.mem_footprint in
      let cyc (r : Vm.result) = r.Vm.counters.Counters.cycles in
      Printf.printf
        "  %-8s footprint: subheap %d / mixed %d / wrapped %d; cycles: %d / %d / %d\n"
        wl.name (fp sub) (fp mix) (fp wrap) (cyc sub) (cyc mix) (cyc wrap))
    [ em3d; treeadd ];
  (* A1c: allocation-wrapper type inference (§5.2.1 future work) *)
  Printf.printf
    "\nallocation-wrapper type inference (recovers layout tables):\n";
  List.iter
    (fun name ->
      let lt vname =
        let c = (result_of ctx (name ^ "/" ^ vname)).Vm.counters in
        (c.Counters.heap_objs_layout, c.Counters.heap_objs)
      in
      let off_lt, off_n = lt "subheap" in
      let on_lt, on_n = lt "subheap-infer" in
      Printf.printf "  %-14s layout tables: %d/%d objects -> %d/%d with inference\n"
        name off_lt off_n on_lt on_n)
    infer_workloads;
  print_newline ()

(* ---------------- Juliet ---------------- *)

let juliet ctx =
  print_endline "== Functional evaluation (§5.1): Juliet-style suite ==";
  List.iter
    (fun (cname, _) ->
      let _, s = juliet_run_all ctx juliet_cases cname in
      Printf.printf "  %-12s %d/%d bad cases detected, %d good-case failures\n"
        cname s.J.detected s.total s.good_failures)
    juliet_configs;
  print_newline ()

(* ---------------- Fault-injection coverage ---------------- *)

type tally = {
  mutable detected : int;  (** trapped with a class-appropriate trap *)
  mutable detected_other : int;  (** trapped, but not the expected trap *)
  mutable silent : int;
  mutable benign : int;
  mutable not_fired : int;
  mutable aborted : int;
  mutable engine_failed : int;  (** failed at the engine level *)
}

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
let detection_rate t =
  let fired = t.detected + t.detected_other + t.silent + t.benign + t.aborted in
  if fired = 0 then None
  else Some (float_of_int (t.detected + t.detected_other) /. float_of_int fired)

(* every (class, variant) cell classified against the variant's
   uninjected golden run *)
let fault_tallies ctx ~seeds classes variants golden_name =
  let golden vname =
    match (outcome_of ctx (golden_name vname)).Engine.result with
    | Some r -> Vm.observe r
    | None ->
      Printf.eprintf "fatal: golden run %s did not complete\n"
        (golden_name vname);
      exit 1
  in
  List.map
    (fun cls ->
      ( cls,
        List.map
          (fun (vname, _) ->
            let golden = golden vname in
            let t =
              { detected = 0; detected_other = 0; silent = 0; benign = 0;
                not_fired = 0; aborted = 0; engine_failed = 0 }
            in
            for seed = 0 to seeds - 1 do
              match (outcome_of ctx (fault_name cls vname seed)).Engine.result with
              | Some r ->
                count t
                  (Classify.classify ~cls ~fired:(r.Vm.fault_injections <> [])
                     ~golden ~faulted:(Vm.observe r))
              | None -> t.engine_failed <- t.engine_failed + 1
            done;
            (vname, t))
          variants ))
    classes

let spatial_tallies ctx ~seeds =
  fault_tallies ctx ~seeds spatial_classes fault_variants golden_name

let temporal_tallies ctx ~seeds =
  fault_tallies ctx ~seeds temporal_classes fault_temporal_variants
    temporal_golden_name

let faults ctx ~seeds =
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
  Printf.printf
    "== Fault-injection coverage: %d seeds per class x variant, victim %s ==\n"
    seeds Victim.name;
  Table.print ~header (rows_of (spatial_tallies ctx ~seeds));
  Printf.printf
    "\n== Temporal fault coverage: %d seeds per class x variant, victim %s ==\n"
    seeds Victim.temporal_name;
  Table.print ~header (rows_of (temporal_tallies ctx ~seeds));
  print_newline ()

(* ---------------- Temporal mode ---------------- *)

let fmt_x3 v = Printf.sprintf "%.3fx" v
let fmt_dpct v = Printf.sprintf "%+.2f%%" v

let temporal_juliet ctx =
  List.map
    (fun (cname, _) -> (cname, snd (juliet_run_all ctx temporal_cases cname)))
    temporal_configs

(* one workload's results, one per temporal config *)
let temporal_results ctx wname =
  List.map
    (fun (cname, _) -> (cname, result_of ctx (temporal_job_name wname cname)))
    temporal_configs

let cycles (r : Vm.result) = r.Vm.counters.Counters.cycles

let overhead_of results cname =
  float_of_int (cycles (List.assoc cname results))
  /. float_of_int (cycles (List.assoc "baseline" results))

let temporal_geo ctx cname =
  Ifp_util.Stats.geomean
    (List.map
       (fun w -> overhead_of (temporal_results ctx w) cname)
       temporal_workloads)

(* the temporal comparators projected onto the spatial subheap runs:
   (model, geo-mean instr overhead, geo-mean cycle overhead) *)
let temporal_projections ctx =
  let rows = List.map (temporal_results ctx) temporal_workloads in
  List.map
    (fun model ->
      let geo f =
        Ifp_util.Stats.geomean
          (List.map
             (fun results ->
               f
                 (B.project model
                    ~baseline:(List.assoc "baseline" results)
                    ~ifp:(List.assoc "ifp-subheap" results)))
             rows)
      in
      (model, geo (fun p -> p.B.instr_overhead), geo (fun p -> p.B.cycle_overhead)))
    B.temporal_models

let checksums_agree results =
  match List.map (fun (_, r) -> r.Vm.outcome) results with
  | Vm.Finished v :: rest ->
    List.for_all (function Vm.Finished w -> Int64.equal v w | _ -> false) rest
  | _ -> false

let temporal ctx =
  print_endline
    "== Juliet temporal families (CWE-416/415): 6 cases, bad must trap only \
     under temporal mode ==";
  Table.print
    ~header:[ "config"; "detected"; "missed"; "good failures" ]
    (List.map
       (fun (name, (s : J.summary)) ->
         [
           name;
           Printf.sprintf "%d/%d" s.detected s.total;
           string_of_int s.missed;
           string_of_int s.good_failures;
         ])
       (temporal_juliet ctx));
  print_newline ();
  print_endline
    "== Temporal-mode overhead: cycle ratio vs baseline, and the delta \
     temporal mode adds ==";
  Table.print
    ~header:
      [
        "workload"; "subheap"; "subheap-t"; "d cycles"; "d mem"; "wrapped";
        "wrapped-t"; "d cycles"; "d mem";
      ]
    (List.map
       (fun wname ->
         let results = temporal_results ctx wname in
         let ov = overhead_of results in
         let dmem spatial temporal =
           let mem c = float_of_int (List.assoc c results).Vm.mem_footprint in
           100.0 *. ((mem temporal /. mem spatial) -. 1.0)
         in
         [
           wname;
           fmt_x3 (ov "ifp-subheap");
           fmt_x3 (ov "ifp-subheap-t");
           fmt_dpct (100.0 *. (ov "ifp-subheap-t" -. ov "ifp-subheap"));
           fmt_dpct (dmem "ifp-subheap" "ifp-subheap-t");
           fmt_x3 (ov "ifp-wrapped");
           fmt_x3 (ov "ifp-wrapped-t");
           fmt_dpct (100.0 *. (ov "ifp-wrapped-t" -. ov "ifp-wrapped"));
           fmt_dpct (dmem "ifp-wrapped" "ifp-wrapped-t");
         ])
       temporal_workloads);
  let geo = temporal_geo ctx in
  Printf.printf
    "\ngeo-mean cycle overhead: subheap %s -> %s temporal, wrapped %s -> %s \
     temporal\n\
     (temporal adds metadata re-MACs on free plus quarantined footprint; no \
     promote-path slowdown — the epoch compare rides the existing fetch)\n\n"
    (fmt_x3 (geo "ifp-subheap"))
    (fmt_x3 (geo "ifp-subheap-t"))
    (fmt_x3 (geo "ifp-wrapped"))
    (fmt_x3 (geo "ifp-wrapped-t"));
  print_endline "== Hardware pricing of the free-epoch extension (area model) ==";
  Table.print
    ~header:[ "component"; "stage"; "LUTs"; "FFs" ]
    (List.map
       (fun (c : H.component) ->
         [ c.cname; H.stage_to_string c.stage; string_of_int c.luts;
           string_of_int c.ffs ])
       H.temporal_components);
  Printf.printf
    "\nadded area: +%d LUTs / +%d FFs on top of the spatial design (+%.1f%% -> \
     +%.1f%% over vanilla)\n"
    (H.added_luts H.full_temporal - H.added_luts H.full)
    (H.added_ffs H.full_temporal - H.added_ffs H.full)
    (H.lut_increase_pct H.full)
    (H.lut_increase_pct H.full_temporal);
  Printf.printf "extra metadata bytes per object:\n";
  List.iter
    (fun (what, bytes) -> Printf.printf "  %-20s %d\n" what bytes)
    H.temporal_metadata_bytes;
  print_newline ();
  print_endline
    "== Temporal comparators (CryptSan-like, RV-CURE-like) projected on the \
     same runs ==";
  Table.print
    ~header:[ "scheme"; "instr overhead"; "runtime overhead"; "memory";
              "spatial?"; "temporal?" ]
    (List.map
       (fun ((model : B.model), gi, gc) ->
         [ model.name; fmt_x3 gi; fmt_x3 gc; fmt_x3 model.memory_factor;
           detection_label model.object_; detection_label model.temporal ])
       (temporal_projections ctx));
  print_newline ()

(* The temporal gate: both temporal configs detect every bad case, no
   config fails a good case, and every workload's checksum agrees across
   configs. Violations are reported on stderr. *)
let temporal_gate ctx =
  let bad_checksums =
    List.filter
      (fun w -> not (checksums_agree (temporal_results ctx w)))
      temporal_workloads
  in
  List.iter
    (Printf.eprintf "checksum disagreement in workload %s\n")
    bad_checksums;
  let juliet_ok =
    List.for_all
      (fun (name, (s : J.summary)) ->
        s.good_failures = 0
        && ((name <> "ifp-subheap-t" && name <> "ifp-wrapped-t")
           || s.detected = s.total))
      (temporal_juliet ctx)
  in
  juliet_ok && bad_checksums = []

(* ---------------- aggregate (BENCH_experiments.json) ---------------- *)

let targets_of = function
  | "all" ->
    [ "table2"; "table4"; "fig10"; "fig11"; "fig12"; "fig13"; "baselines";
      "extensions"; "juliet" ]
  | t -> [ t ]

let needs_rows target =
  List.exists
    (fun t ->
      List.mem t [ "table4"; "fig10"; "fig11"; "fig12"; "baselines" ])
    (targets_of target)

let faults_json ctx ~seeds =
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
  let classes_json tallies =
    Obj
      (List.map
         (fun (cls, per_variant) ->
           ( Fault.class_name cls,
             Obj (List.map (fun (vname, t) -> (vname, tally_json t)) per_variant)
           ))
         tallies)
  in
  Obj
    [
      ("victim", String Victim.name);
      ("seeds", Int seeds);
      ("classes", classes_json (spatial_tallies ctx ~seeds));
      ("temporal_victim", String Victim.temporal_name);
      ("temporal_classes", classes_json (temporal_tallies ctx ~seeds));
    ]

let temporal_json ctx =
  let open Events in
  let detection_name = function
    | B.Full -> "full"
    | B.Object_only -> "object-only"
    | B.Probabilistic p -> Printf.sprintf "probabilistic-%.4f" p
    | B.None_ -> "none"
  in
  let ifp_configs = List.tl temporal_configs in
  Obj
    [
      ( "juliet_temporal",
        Obj
          (List.map
             (fun (name, (s : J.summary)) ->
               ( name,
                 Obj
                   [
                     ("total", Int s.total);
                     ("detected", Int s.detected);
                     ("missed", Int s.missed);
                     ("good_failures", Int s.good_failures);
                   ] ))
             (temporal_juliet ctx)) );
      ( "workloads",
        List
          (List.map
             (fun wname ->
               let results = temporal_results ctx wname in
               Obj
                 (("name", String wname)
                 :: ("baseline_cycles", Int (cycles (List.assoc "baseline" results)))
                 :: List.map
                      (fun (cname, _) ->
                        let r = List.assoc cname results in
                        ( cname,
                          Obj
                            [
                              ("cycles", Int (cycles r));
                              ("overhead", Float (overhead_of results cname));
                              ("mem_footprint", Int r.Vm.mem_footprint);
                            ] ))
                      ifp_configs))
             temporal_workloads) );
      ( "geomean_cycle_overhead",
        Obj
          (List.map
             (fun (cname, _) -> (cname, Float (temporal_geo ctx cname)))
             ifp_configs) );
      ( "hwmodel",
        Obj
          [
            ("spatial_added_luts", Int (H.added_luts H.full));
            ("temporal_added_luts", Int (H.added_luts H.full_temporal));
            ("delta_luts", Int (H.added_luts H.full_temporal - H.added_luts H.full));
            ("delta_ffs", Int (H.added_ffs H.full_temporal - H.added_ffs H.full));
            ("lut_increase_pct", Float (H.lut_increase_pct H.full));
            ("lut_increase_pct_temporal", Float (H.lut_increase_pct H.full_temporal));
            ( "metadata_bytes",
              Obj (List.map (fun (k, v) -> (k, Int v)) H.temporal_metadata_bytes) );
          ] );
      ( "comparators",
        List
          (List.map
             (fun ((model : B.model), gi, gc) ->
               Obj
                 [
                   ("name", String model.name);
                   ("instr_overhead", Float gi);
                   ("cycle_overhead", Float gc);
                   ("memory_overhead", Float model.memory_factor);
                   ("temporal", String (detection_name model.temporal));
                 ])
             (temporal_projections ctx)) );
    ]

let bench_aggregate ~opts ~(stats : Engine.stats) ctx =
  let open Events in
  let selected t = List.mem t (targets_of opts.target) in
  let rows_computed = needs_rows opts.target in
  let workloads =
    if not rows_computed then Null
    else
      List
        (List.map
           (fun (wl : W.t) ->
             let r = row_of ctx wl in
             let ov f = Float (f ~baseline:r.Report.baseline) in
             Obj
               [
                 ("name", String wl.name);
                 ("status", String (Report.status_string r));
                 ( "outcomes",
                   Obj
                     (List.map
                        (fun (vname, why) -> (vname, String why))
                        (Report.check_outcomes r)) );
                 ("baseline_cycles", Int r.baseline.Vm.counters.Counters.cycles);
                 ( "baseline_instrs",
                   Int (Counters.total_instrs r.baseline.Vm.counters) );
                 ("runtime_overhead_subheap", ov (fun ~baseline -> Report.runtime_overhead ~baseline r.subheap));
                 ("runtime_overhead_wrapped", ov (fun ~baseline -> Report.runtime_overhead ~baseline r.wrapped));
                 ("instr_overhead_subheap", ov (fun ~baseline -> Report.instr_overhead ~baseline r.subheap));
                 ("instr_overhead_wrapped", ov (fun ~baseline -> Report.instr_overhead ~baseline r.wrapped));
                 ("memory_overhead_subheap", ov (fun ~baseline -> Report.memory_overhead ~baseline r.subheap));
                 ("memory_overhead_wrapped", ov (fun ~baseline -> Report.memory_overhead ~baseline r.wrapped));
               ])
           Registry.all)
  in
  let geomean =
    if not rows_computed then Null
    else
      let geo f =
        Ifp_util.Stats.geomean
          (List.map (fun (wl : W.t) -> f (row_of ctx wl)) Registry.all)
      in
      Obj
        [
          ( "runtime_overhead_subheap",
            Float (geo (fun r -> Report.runtime_overhead ~baseline:r.Report.baseline r.subheap)) );
          ( "runtime_overhead_wrapped",
            Float (geo (fun r -> Report.runtime_overhead ~baseline:r.Report.baseline r.wrapped)) );
          ( "instr_overhead_subheap",
            Float (geo (fun r -> Report.instr_overhead ~baseline:r.Report.baseline r.subheap)) );
          ( "instr_overhead_wrapped",
            Float (geo (fun r -> Report.instr_overhead ~baseline:r.Report.baseline r.wrapped)) );
        ]
  in
  Obj
    [
      ("bench", String "ifp_experiments");
      ("target", String opts.target);
      ("model_digest", String Job.model_digest);
      ("campaign", Obj (Engine.stats_json stats));
      ("events_log", match opts.campaign.log_path with Some p -> String p | None -> Null);
      ("workloads", workloads);
      ("geomean", geomean);
      ( "faults",
        if selected "faults" then faults_json ctx ~seeds:opts.seeds else Null );
      ("temporal", if selected "temporal" then temporal_json ctx else Null);
    ]

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
  let jobs = dedupe_jobs (jobs_for_target ~seeds:opts.seeds opts.target) in
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
  let ctx = { outcomes = Hashtbl.create (Array.length outcomes * 2) } in
  Array.iter
    (fun (o : Engine.outcome) -> Hashtbl.replace ctx.outcomes o.job.Job.name o)
    outcomes;
  let run = function
    | "table2" -> table2 ()
    | "table4" -> table4 ctx
    | "fig10" -> fig10 ctx
    | "fig11" -> fig11 ctx
    | "fig12" -> fig12 ctx
    | "fig13" -> fig13 ()
    | "baselines" -> baselines ctx
    | "extensions" -> extensions ctx
    | "juliet" -> juliet ctx
    | "faults" -> faults ctx ~seeds:opts.seeds
    | "temporal" -> temporal ctx
    | t -> invalid_arg ("unknown experiment " ^ t)
  in
  List.iter run (targets_of opts.target);
  Events.write_json_file ~path:opts.bench_out
    (bench_aggregate ~opts ~stats ctx);
  if opts.target = "temporal" && not (temporal_gate ctx) then (
    prerr_endline "FAIL: temporal detection or checksum gate violated";
    Events.close log;
    exit 1);
  Cli.finish ~log ~interrupted:false ()
