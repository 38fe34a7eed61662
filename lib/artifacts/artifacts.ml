open Core
open Artifact
module W = Ifp_workloads.Workload
module Registry = Ifp_workloads.Registry
module Job = Ifp_campaign.Job
module J = Ifp_juliet.Juliet
module B = Ifp_baselines.Baselines
module H = Ifp_hwmodel.Hwmodel
module Fault = Ifp_faultinject.Fault
module Verdict = Ifp_faultinject.Verdict
module Victim = Ifp_workloads.Victim

let paper =
  [ "table2"; "table4"; "fig10"; "fig11"; "fig12"; "fig13"; "baselines";
    "extensions"; "juliet" ]

let targets = ("all" :: paper) @ [ "faults"; "temporal" ]
let printed = function "all" -> paper | t -> [ t ]

(* ---------------- the job matrix ---------------- *)

(* configurations by their command-line names, shared with ifp_run *)
let config name = List.assoc name Report.configs
let named names = List.map (fun n -> (n, config n)) names

(* one job per (name, config) of [variants] on a registered workload *)
let workload_jobs ?(prefix = "") wl variants =
  let prog = Lazy.force (Option.get (Registry.find wl)).W.prog in
  List.map
    (fun (v, config) ->
      Job.make ~name:(prefix ^ wl ^ "/" ^ v) ~group:(prefix ^ wl) ~variant:v ~config prog)
    variants

let row_jobs () = List.concat_map (fun wl -> workload_jobs wl Report.variants) Registry.names

let juliet_cases = lazy (J.all_cases ())
let juliet_configs = named [ "baseline"; "wrapped"; "subheap"; "subheap-np" ]

(* the §5.3 walker ablation compares full narrowing against none *)
let juliet_ext_configs = named [ "subheap"; "no-narrowing" ]

let juliet_job_name case_id expect cname =
  let which = match expect with Verdict.Detect -> "bad" | Verdict.Pass -> "good" in
  Printf.sprintf "juliet/%s/%s/%s" case_id which cname

let juliet_jobs cases cfgs =
  List.concat_map
    (fun (c : J.case) ->
      List.concat_map
        (fun (cname, config) ->
          List.map
            (fun expect ->
              Job.make
                ~name:(juliet_job_name c.id expect cname)
                ~group:("juliet/" ^ c.id) ~variant:cname ~config (J.program c expect))
            [ Verdict.Detect; Verdict.Pass ])
        cfgs)
    (Lazy.force cases)

let infer_workloads = [ "wolfcrypt-dh"; "health"; "coremark" ]

let extensions_jobs () =
  List.concat_map
    (fun wl -> workload_jobs wl (named [ "subheap"; "mixed"; "wrapped" ]))
    [ "em3d"; "treeadd" ]
  @ List.concat_map
      (fun wl ->
        workload_jobs wl [ ("subheap", config "subheap"); ("subheap-infer", config "infer-types") ])
      infer_workloads
  @ juliet_jobs juliet_cases juliet_ext_configs

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
  @ List.concat_map (fun wl -> workload_jobs ~prefix:"temporal/" wl temporal_configs) temporal_workloads

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

let jobs ~seeds target =
  let rows = lazy (row_jobs ()) in
  dedupe_jobs
    (List.concat_map
       (function
         | "table2" | "fig13" -> []
         | "table4" | "fig10" | "fig11" | "fig12" | "baselines" -> Lazy.force rows
         | "extensions" -> extensions_jobs ()
         | "juliet" -> juliet_jobs juliet_cases juliet_configs
         | "faults" -> fault_jobs ~seeds
         | "temporal" -> temporal_jobs ()
         | t -> invalid_arg ("unknown experiment " ^ t))
       (printed target))

(* ---------------- cells ---------------- *)

let times r = Ratio (r, Times "%.2fx")
let times3 r = Ratio (r, Times "%.3fx")
let change r = Ratio (r, Change)
let count n = Count (n, Plain)
let sci n = Count (n, Sci)
let out_of n total = Count (n, Out_of total)
let pct0 p = Percent (p, "%.0f%%")
let table columns rows = Table { columns; rows }
let geomean = Ifp_util.Stats.geomean

let detection_label = function
  | B.Full -> "yes"
  | B.Object_only -> "object only"
  | B.Probabilistic p -> Printf.sprintf "prob. %.0f%%" (100.0 *. p)
  | B.None_ -> "no"

(* the named rows' cells in [col] all satisfy [p] *)
let all_rows a keys col p = List.for_all (fun k -> p (num (row a k col))) keys

(* the status column is [Report.status_string], which flags a variant
   that trapped, aborted, or returned a value other than baseline's *)
let checksum_claims =
  List.map
    (fun wl -> (wl ^ " checksums equal", fun a -> row a wl "status" = Status "ok"))
    Registry.names

(* ---------------- Table 2 ---------------- *)

let table2 () =
  make ~id:"table2" ~title:"Table 2: object metadata schemes (constraints measured)"
    [
      table
        [ "scheme"; "placement constraint"; "max object size"; "object count limit";
          "use scenario" ]
        (List.map
           (List.map (fun s -> Text s))
           [
             [ "local offset"; "base granule-aligned"; "<= 1008 B"; "unlimited";
               "small objects, locals" ];
             [ "subheap"; "pow2-aligned blocks"; "block-capacity bound";
               "16 control regs / block sizes"; "heap objects" ];
             [ "global table"; "none"; "none";
               Printf.sprintf "%d rows" (Tag.global_table_entries - 1);
               "large globals, fallback" ];
           ]);
      Blank;
      (* the constants, read from the implementation *)
      text "(tag budget: 16 bits = 2 poison + 2 selector + 12 scheme/subobject;";
      line
        " local offset: {granule} B granule, {max_object} B max object, {elements} layout \
         elements;"
        [ ("granule", count Tag.granule); ("max_object", count Tag.local_offset_max_object);
          ("elements", count Tag.local_offset_max_elements) ];
      line " subheap: {subobjects} subobject-index values; global table: {entries} entries)"
        [ ("subobjects", count Tag.subheap_max_elements);
          ("entries", count Tag.global_table_entries) ];
    ]
    []

(* ---------------- Table 4 ---------------- *)

let table4 rows =
  let instrs (r : Report.row) x = Report.instr_overhead ~baseline:r.baseline x in
  let geo sel = change (geomean (List.map (fun r -> instrs r (sel r)) rows)) in
  let counters wl = (List.find (fun (r : Report.row) -> r.name = wl) rows).subheap.Vm.counters in
  make ~id:"table4"
    ~title:"Table 4: object instrumentation, valid promotes, dynamic instructions"
    [
      table
        [ "benchmark"; "glob(LT%)"; "local(LT%)"; "heap(LT%)"; "valid promote";
          "(% of promotes)"; "baseline instrs"; "subheap"; "wrapped"; "status" ]
        (List.map
           (fun (r : Report.row) ->
             let c = r.subheap.Vm.counters in
             let promotes = Counters.promotes_total c in
             [ Text r.name; Count (c.global_objs, Share c.global_objs_layout);
               Count (c.local_objs, Share c.local_objs_layout);
               Count (c.heap_objs, Share c.heap_objs_layout); sci c.promotes_valid;
               (if promotes = 0 then Text "-"
                else pct0 (float_of_int (100 * c.promotes_valid / promotes)));
               sci (Counters.total_instrs r.baseline.Vm.counters); times (instrs r r.subheap);
               times (instrs r r.wrapped); Status (Report.status_string r) ])
           rows);
      Blank;
      line "geo-mean dynamic instruction increase: subheap {subheap}, wrapped {wrapped}"
        [ ("subheap", geo (fun r -> r.subheap)); ("wrapped", geo (fun r -> r.wrapped)) ];
      text "(paper: subheap +5%, wrapped +14%)";
    ]
    ([
       ( "Table 4: subheap executes no more",
         fun a ->
           List.for_all (fun r -> num (r "subheap") <= num (r "wrapped")) (Artifact.rows a)
           && num (value a "subheap") < num (value a "wrapped") );
       (* half of treeadd's promotes see NULL children (paper Table 4:
          50%), and every tree node is a heap object *)
       ( "treeadd profile",
         fun a ->
           let c = counters "treeadd" in
           let null_share =
             float_of_int c.promotes_null /. float_of_int (Counters.promotes_total c)
           in
           null_share > 0.4 && null_share < 0.6
           && num (row a "treeadd" "heap(LT%)") = 32767.0 );
       (* CoreMark allocates through a type-erased arena, and no pointer
          it promotes carries a subobject index, so its run attempts no
          narrowing at all: the §5.2.1 fallback is not exercised here *)
       ( "coremark: no subobject promote",
         fun _ ->
           let c = counters "coremark" in
           c.promotes_subobj = 0 && c.narrows_ok = 0 && c.narrows_failed = 0 );
       ( "sjeng global table",
         fun a ->
           num (row a "sjeng" "glob(LT%)") >= 1.0 && num (row a "sjeng" "local(LT%)") > 100.0 );
       ("anagram legacy promotes", fun _ -> (counters "anagram").promotes_legacy > 0);
     ]
    @ checksum_claims
    @ List.map
        (fun wl ->
          ( wl ^ " does work",
            fun a ->
              let r = row a wl in
              num (r "baseline instrs") *. num (r "subheap") > 1000.0
              && num (r "glob(LT%)") +. num (r "local(LT%)") +. num (r "heap(LT%)") > 0.0 ))
        Registry.names)

(* ---------------- Fig 10 ---------------- *)

let fig10 rows =
  let ov (r : Report.row) x = change (Report.runtime_overhead ~baseline:r.baseline x) in
  let geo sel =
    change
      (geomean
         (List.map (fun (r : Report.row) -> Report.runtime_overhead ~baseline:r.baseline (sel r)) rows))
  in
  make ~id:"fig10" ~title:"Figure 10: runtime overhead (cycles vs baseline)"
    [
      table
        [ "benchmark"; "subheap"; "wrapped"; "subheap-np"; "wrapped-np"; "status" ]
        (List.map
           (fun (r : Report.row) ->
             [ Text r.name; ov r r.subheap; ov r r.wrapped; ov r r.subheap_np;
               ov r r.wrapped_np; Status (Report.status_string r) ])
           rows);
      Blank;
      line "geo-mean runtime overhead: subheap {subheap}, wrapped {wrapped} (paper: ~12%, ~24%)"
        [ ("subheap", geo (fun r -> r.subheap)); ("wrapped", geo (fun r -> r.wrapped)) ];
      line "no-promote controls:       subheap {subheap-np}, wrapped {wrapped-np}"
        [ ("subheap-np", geo (fun r -> r.subheap_np));
          ("wrapped-np", geo (fun r -> r.wrapped_np)) ];
    ]
    ([
       ( "Fig. 10: subheap beats wrapped",
         fun a ->
           num (value a "subheap") < num (value a "wrapped")
           && all_rows a [ "perimeter"; "treeadd" ] "subheap" (fun v -> v < 1.0) );
       (* the paper's headline: allocation-heavy tree benchmarks run
          faster under the subheap allocator than under the wrapped one *)
       ( "subheap wins on alloc-heavy",
         fun a ->
           List.for_all
             (fun wl -> num (row a wl "subheap") < num (row a wl "wrapped"))
             [ "treeadd"; "perimeter" ] );
       (* disabling metadata access is never slower *)
       ( "no-promote cheaper",
         fun a ->
           List.for_all
             (fun r ->
               num (r "subheap-np") < num (r "subheap") && num (r "wrapped-np") < num (r "wrapped"))
             (Artifact.rows a) );
     ]
    @ checksum_claims)

(* ---------------- Fig 11 ---------------- *)

let fig11 rows =
  make ~id:"fig11"
    ~title:"Figure 11: dynamic counts of In-Fat Pointer instructions (subheap)"
    [
      table
        [ "benchmark"; "promote"; "ifp arithmetic"; "bounds ld/st"; "% of baseline" ]
        (List.map
           (fun (r : Report.row) ->
             let n = Counters.ifp_count r.subheap.Vm.counters in
             let promote = n Insn.Promote in
             let arith =
               n Insn.Ifpadd + n Insn.Ifpidx + n Insn.Ifpbnd + n Insn.Ifpchk
               + n Insn.Ifpextract + n Insn.Ifpmd + n Insn.Ifpmac
             in
             let ldst = n Insn.Ldbnd + n Insn.Stbnd in
             let basei = Counters.total_instrs r.baseline.Vm.counters in
             [ Text r.name; sci promote; sci arith; sci ldst;
               Percent
                 (100.0 *. float_of_int (promote + arith + ldst) /. float_of_int basei, "%.1f%%")
             ])
           rows);
    ]
    []

(* ---------------- Fig 12 ---------------- *)

(* the paper excludes programs whose footprint is below `time -v`'s
   resolution (<6 MB there); at our scaled-down sizes the equivalent
   cutoff is 16 KiB of baseline footprint *)
let above_cutoff rows =
  List.partition (fun (r : Report.row) -> r.baseline.Vm.mem_footprint >= 16 * 1024) rows

let fig12 rows =
  let included, excluded = above_cutoff rows in
  let mem (r : Report.row) x = Report.memory_overhead ~baseline:r.baseline x in
  let geo sel = change (geomean (List.map (fun r -> mem r (sel r)) included)) in
  make ~id:"fig12" ~title:"Figure 12: memory overhead (max footprint vs baseline)"
    [
      table [ "benchmark"; "subheap"; "wrapped" ]
        (List.map
           (fun (r : Report.row) ->
             [ Text r.name; change (mem r r.subheap); change (mem r r.wrapped) ])
           included);
      Blank;
      line "geo-mean memory overhead: subheap {subheap}, wrapped {wrapped} (paper: -6%, +21%)"
        [ ("subheap", geo (fun r -> r.subheap)); ("wrapped", geo (fun r -> r.wrapped)) ];
      line "(excluded, as in the paper: {excluded})"
        [ ( "excluded",
            Text (String.concat ", " (List.map (fun (r : Report.row) -> r.name) excluded)) ) ];
    ]
    [
      ( "Fig. 12: subheap saves, wrapped costs",
        fun a -> num (value a "subheap") < 1.0 && 1.0 < num (value a "wrapped") );
      ( "subheap memory win",
        fun a ->
          let wls = [ "treeadd"; "bisort"; "ft" ] in
          all_rows a wls "subheap" (fun v -> v < 1.0) && all_rows a wls "wrapped" (fun v -> v > 1.0)
      );
    ]

(* ---------------- Fig 13 ---------------- *)

let component_table components =
  table [ "component"; "stage"; "LUTs"; "FFs" ]
    (List.map
       (fun (c : H.component) ->
         [ Text c.cname; Text (H.stage_to_string c.stage); count c.luts; count c.ffs ])
       components)

let no_walker = { H.full with layout_walker = false }

let fig13 () =
  let no_bregs = { H.full with bounds_registers = false } in
  let ablation name label config =
    line
      (Printf.sprintf "  %-22s +{%s} LUTs (+{%s_pct}) — %s" (name ^ ":") name name label)
      [ (name, count (H.added_luts config)); (name ^ "_pct", pct0 (H.lut_increase_pct config)) ]
  in
  make ~id:"fig13" ~title:"Figure 13: LUT increase in the modified processor (model)"
    ([ component_table H.components; Blank; text "per-stage added LUTs:" ]
    @ List.map
        (fun (s, l) ->
          let s = H.stage_to_string s in
          line (Printf.sprintf "  %-16s {%s}" s s) [ (s, count l) ])
        (H.by_stage H.full)
    @ [
        Blank;
        line "totals: {vanilla_luts} -> {luts} LUTs (+{increase}), {vanilla_ffs} -> {ffs} FFs"
          [ ("vanilla_luts", count H.vanilla_luts); ("luts", count (H.total_luts H.full));
            ("increase", pct0 (H.lut_increase_pct H.full));
            ("vanilla_ffs", count H.vanilla_ffs); ("ffs", count (H.total_ffs H.full)) ];
        text "(paper: 37,088 -> 59,261 LUTs, +60%; 21,993 -> 32,545 FFs, +48%)";
        Blank;
        text "ablations (§5.3):";
        ablation "drop layout walker" "loses hardware narrowing" no_walker;
        ablation "drop bounds registers" "the largest single saving" no_bregs;
      ])
    []

(* ---------------- Baselines ---------------- *)

let baselines rows =
  let geo f = geomean (List.map f rows) in
  (* memory ratios only over benchmarks above the footprint cutoff, as
     in Fig. 12 *)
  let included, _ = above_cutoff rows in
  let ifp_row name sel =
    [ Text name;
      times (geo (fun r -> Report.instr_overhead ~baseline:r.baseline (sel r)));
      times (geo (fun r -> Report.runtime_overhead ~baseline:r.baseline (sel r)));
      times
        (geomean
           (List.map
              (fun (r : Report.row) -> Report.memory_overhead ~baseline:r.baseline (sel r))
              included));
      Text "yes" ]
  in
  make ~id:"baselines"
    ~title:"Comparators (Table 1 / §5.2.2): projected overheads, geo-mean over all benchmarks"
    [
      table [ "scheme"; "instr overhead"; "runtime overhead"; "memory"; "subobject?" ]
        (List.map
           (fun model ->
             let proj (r : Report.row) = B.project model ~baseline:r.baseline ~ifp:r.subheap in
             [ Text model.B.name; times (geo (fun r -> (proj r).instr_overhead));
               times (geo (fun r -> (proj r).cycle_overhead)); times model.memory_factor;
               Text (detection_label model.subobject) ])
           B.all
        @ [ ifp_row "In-Fat Pointer (subheap)" (fun r -> r.subheap);
            ifp_row "In-Fat Pointer (wrapped)" (fun r -> r.wrapped) ]);
    ]
    []

(* ---------------- Extensions / ablations ---------------- *)

let juliet_tally result cases cname =
  Verdict.tally
    (J.rows ~config:cname
       ~run:(fun (c : J.case) expect -> result (juliet_job_name c.id expect cname))
       (Lazy.force cases))

let detected (t : Verdict.tally) = out_of t.detected t.total

let extensions result =
  (* A1b: the mixed allocator fixes the subheap's array-fragmentation cost *)
  let mixed wl =
    let values what f =
      List.map
        (fun v -> (Printf.sprintf "%s.%s.%s" wl what v, count (f (result (wl ^ "/" ^ v)))))
        [ "subheap"; "mixed"; "wrapped" ]
    in
    line
      (Printf.sprintf
         "  %-8s footprint: subheap {%s.footprint.subheap} / mixed {%s.footprint.mixed} / \
          wrapped {%s.footprint.wrapped}; cycles: {%s.cycles.subheap} / {%s.cycles.mixed} / \
          {%s.cycles.wrapped}"
         wl wl wl wl wl wl wl)
      (values "footprint" (fun r -> r.Vm.mem_footprint)
      @ values "cycles" (fun r -> r.Vm.counters.Counters.cycles))
  in
  (* A1c: allocation-wrapper type inference (§5.2.1 future work) *)
  let infer wl =
    let lt v =
      let c = (result (wl ^ "/" ^ v)).Vm.counters in
      out_of c.Counters.heap_objs_layout c.Counters.heap_objs
    in
    line
      (Printf.sprintf "  %-14s layout tables: {%s.off} objects -> {%s.on} with inference" wl wl wl)
      [ (wl ^ ".off", lt "subheap"); (wl ^ ".on", lt "subheap-infer") ]
  in
  make ~id:"extensions" ~title:"Extensions & ablations (paper future work / §5.3 trade-offs)"
    ([
       (* A1a: drop the layout-table walker -> object granularity only *)
       line "layout-walker ablation (saves {luts} LUTs in the area model):"
         [ ("luts", count (H.added_luts H.full - H.added_luts no_walker)) ];
       line "  full narrowing: {full} detected; walker disabled: {ablated}"
         [ ("full", detected (juliet_tally result juliet_cases "subheap"));
           ("ablated", detected (juliet_tally result juliet_cases "no-narrowing")) ];
       text "  -> the difference is exactly the intra-object cases only hardware";
       text "     narrowing can catch after a pointer's round trip through memory";
       Blank;
       text "mixed allocator (runtime scheme selection, §4.2.1 future work):";
       mixed "em3d";
       mixed "treeadd";
       Blank;
       text "allocation-wrapper type inference (recovers layout tables):";
     ]
    @ List.map infer infer_workloads)
    [
      ("walker ablation detects fewer", fun a -> num (value a "ablated") < num (value a "full"));
      (* the mixed policy: array-heavy em3d avoids subheap fragmentation,
         node-heavy treeadd keeps the subheap's speed; inference recovers
         layouts the wrapper hid *)
      ( "extensions: mixed allocator and inference",
        fun a ->
          let v name = num (value a name) in
          v "em3d.footprint.mixed" < v "em3d.footprint.subheap"
          && v "treeadd.cycles.mixed" < v "treeadd.cycles.wrapped"
          && v "wolfcrypt-dh.off" = 0.0
          && v "wolfcrypt-dh.on" > 0.0 );
    ]

(* ---------------- Juliet ---------------- *)

let juliet result =
  make ~id:"juliet" ~title:"Functional evaluation (§5.1): Juliet-style suite"
    (List.map
       (fun (c, _) ->
         let t = juliet_tally result juliet_cases c in
         line
           (Printf.sprintf "  %-12s {%s} bad cases detected, {%s.good} good-case failures" c c c)
           [ (c, detected t); (c ^ ".good", count t.pass_failures) ])
       juliet_configs)
    [
      ( "Juliet: IFP 72/72, baseline 0/72",
        fun a ->
          let is c n = value a c = out_of n 72 && value a (c ^ ".good") = count 0 in
          is "wrapped" 72 && is "subheap" 72 && is "baseline" 0 );
    ]

(* ---------------- Fault-injection coverage ---------------- *)

(* the fault-table column of a faulted run: a run that finished without
   its fault landing says nothing of the defense *)
let fault_column ~fired : Verdict.t -> string = function
  | Detected { expected = true; _ } -> "detected"
  | Detected { expected = false; _ } -> "other-trap"
  | Error _ -> "aborted"
  | (Silent | Benign) when not fired -> "not-fired"
  | Silent -> "silent"
  | Benign -> "benign"

let fault_columns =
  [ "detected"; "other-trap"; "silent"; "benign"; "not-fired"; "aborted"; "failed" ]

(* one row per (class, variant) cell: its runs classified against the
   variant's uninjected golden run, and the detection rate over the
   runs where the fault actually landed *)
let fault_table look ~seeds classes variants golden_name =
  let golden vname =
    match look (golden_name vname) with
    | Some r -> Vm.observe r
    | None -> failwith ("golden run " ^ golden_name vname ^ " did not complete")
  in
  let cell cls (vname, _) =
    let golden = golden vname in
    let columns =
      List.init seeds (fun seed ->
          match look (fault_name cls vname seed) with
          | None -> "failed"
          | Some r ->
            fault_column ~fired:(r.Vm.fault_injections <> [])
              (Verdict.classify ~expect:(Fault.expected_trap cls) ~golden (Vm.observe r)))
    in
    let n col = List.length (List.filter (String.equal col) columns) in
    let caught = n "detected" + n "other-trap" in
    let fired = caught + n "silent" + n "benign" + n "aborted" in
    (Text (Fault.class_name cls) :: Text vname :: List.map (fun c -> count (n c)) fault_columns)
    @ [ (if fired = 0 then Text "-" else pct0 (100.0 *. float_of_int caught /. float_of_int fired)) ]
  in
  table
    (("fault class" :: "variant" :: fault_columns) @ [ "detection" ])
    (List.concat_map (fun cls -> List.map (cell cls) variants) classes)

let none_aborted_or_failed a =
  List.for_all (fun r -> num (r "aborted") = 0.0 && num (r "failed") = 0.0) (Artifact.rows a)

(* every listed class is detected in all [seeds] runs under the
   variants; a (class, variant) cell missing from the table fails it *)
let fully_detected ~seeds classes variants a =
  let cells =
    List.filter
      (fun r ->
        List.mem (cell_text (r "fault class")) classes && List.mem (cell_text (r "variant")) variants)
      (Artifact.rows a)
  in
  List.length cells = List.length classes * List.length variants
  && List.for_all (fun r -> num (r "detected") = float_of_int seeds) cells

let faults ~seeds look =
  let title what victim =
    Printf.sprintf "%s coverage: %d seeds per class x variant, victim %s" what seeds victim
  in
  [
    make ~id:"faults" ~title:(title "Fault-injection" Victim.name)
      [ fault_table look ~seeds spatial_classes fault_variants golden_name ]
      [
        ("spatial fault runs: none aborted or failed", none_aborted_or_failed);
        ( "tag_flip and mac_flip fully detected under ifp",
          fully_detected ~seeds [ "tag_flip"; "mac_flip" ] [ "ifp" ] );
      ];
    make ~id:"faults" ~title:(title "Temporal fault" Victim.temporal_name)
      [ fault_table look ~seeds temporal_classes fault_temporal_variants temporal_golden_name ]
      [
        ("temporal fault runs: none aborted or failed", none_aborted_or_failed);
        ( "uaf_use and double_free fully detected under ifp-t and ifp-sub-t",
          fully_detected ~seeds [ "uaf_use"; "double_free" ] [ "ifp-t"; "ifp-sub-t" ] );
      ];
  ]

(* ---------------- Temporal mode ---------------- *)

let dpct v = Percent (v, "%+.2f%%")

let temporal result =
  let per_workload =
    List.map
      (fun w -> (w, List.map (fun (c, _) -> (c, result (temporal_job_name w c))) temporal_configs))
      temporal_workloads
  in
  let cycles (r : Vm.result) = float_of_int r.Vm.counters.Counters.cycles in
  let ov results c = cycles (List.assoc c results) /. cycles (List.assoc "baseline" results) in
  let geo c = times3 (geomean (List.map (fun (_, rs) -> ov rs c) per_workload)) in
  let checksums_agree results =
    match List.map (fun (_, r) -> r.Vm.outcome) results with
    | Vm.Finished v :: rest ->
      List.for_all (function Vm.Finished w -> Int64.equal v w | _ -> false) rest
    | _ -> false
  in
  (* cycle ratios of the spatial and the temporal config, and what
     temporal mode adds in cycles and in memory *)
  let deltas results spatial temporal =
    let mem c = float_of_int (List.assoc c results).Vm.mem_footprint in
    [ times3 (ov results spatial); times3 (ov results temporal);
      dpct (100.0 *. (ov results temporal -. ov results spatial));
      dpct (100.0 *. ((mem temporal /. mem spatial) -. 1.0)) ]
  in
  let project model =
    let geo f =
      geomean
        (List.map
           (fun (_, rs) ->
             f (B.project model ~baseline:(List.assoc "baseline" rs) ~ifp:(List.assoc "ifp-subheap" rs)))
           per_workload)
    in
    [ times3 (geo (fun p -> p.B.instr_overhead)); times3 (geo (fun p -> p.B.cycle_overhead)) ]
  in
  [
    make ~id:"temporal"
      ~title:
        "Juliet temporal families (CWE-416/415): 6 cases, bad must trap only under temporal mode"
      [
        table [ "config"; "detected"; "missed"; "good failures" ]
          (List.map
             (fun (c, _) ->
               let t = juliet_tally result temporal_cases c in
               [ Text c; detected t; count t.missed; count t.pass_failures ])
             temporal_configs);
      ]
      [
        ( "temporal Juliet: 6/6 under temporal mode, 0 under spatial configs",
          fun a ->
            List.for_all (fun c -> row a c "detected" = out_of 6 6) [ "ifp-subheap-t"; "ifp-wrapped-t" ]
            && all_rows a [ "baseline"; "ifp-subheap"; "ifp-wrapped" ] "detected" (fun n -> n = 0.0) );
        ( "temporal Juliet: no good-case failures",
          fun a -> List.for_all (fun r -> num (r "good failures") = 0.0) (Artifact.rows a) );
      ];
    make ~id:"temporal"
      ~title:"Temporal-mode overhead: cycle ratio vs baseline, and the delta temporal mode adds"
      [
        table
          [ "workload"; "subheap"; "subheap-t"; "d cycles"; "d mem"; "wrapped"; "wrapped-t";
            "d cycles"; "d mem" ]
          (List.map
             (fun (w, rs) ->
               (Text w :: deltas rs "ifp-subheap" "ifp-subheap-t")
               @ deltas rs "ifp-wrapped" "ifp-wrapped-t")
             per_workload);
        Blank;
        line
          "geo-mean cycle overhead: subheap {ifp-subheap} -> {ifp-subheap-t} temporal, wrapped \
           {ifp-wrapped} -> {ifp-wrapped-t} temporal"
          (List.map (fun c -> (c, geo c)) [ "ifp-subheap"; "ifp-subheap-t"; "ifp-wrapped"; "ifp-wrapped-t" ]);
        text
          "(temporal adds metadata re-MACs on free plus quarantined footprint; no promote-path \
           slowdown — the epoch compare rides the existing fetch)";
      ]
      (List.map
         (fun (w, rs) -> ("temporal: " ^ w ^ " checksum agrees", fun _ -> checksums_agree rs))
         per_workload);
    make ~id:"temporal" ~title:"Hardware pricing of the free-epoch extension (area model)"
      ([
         component_table H.temporal_components;
         Blank;
         line
           "added area: +{delta_luts} LUTs / +{delta_ffs} FFs on top of the spatial design \
            (+{spatial_pct} -> +{temporal_pct} over vanilla)"
           [ ("delta_luts", count (H.added_luts H.full_temporal - H.added_luts H.full));
             ("delta_ffs", count (H.added_ffs H.full_temporal - H.added_ffs H.full));
             ("spatial_pct", Percent (H.lut_increase_pct H.full, "%.1f%%"));
             ("temporal_pct", Percent (H.lut_increase_pct H.full_temporal, "%.1f%%")) ];
         text "extra metadata bytes per object:";
       ]
      @ List.map
          (fun (what, bytes) -> line (Printf.sprintf "  %-20s {%s}" what what) [ (what, count bytes) ])
          H.temporal_metadata_bytes)
      [ ("temporal extension adds LUTs", fun a -> num (value a "delta_luts") > 0.0) ];
    make ~id:"temporal"
      ~title:"Temporal comparators (CryptSan-like, RV-CURE-like) projected on the same runs"
      [
        table [ "scheme"; "instr overhead"; "runtime overhead"; "memory"; "spatial?"; "temporal?" ]
          (List.map
             (fun (model : B.model) ->
               (Text model.name :: project model)
               @ [ times3 model.memory_factor; Text (detection_label model.object_);
                   Text (detection_label model.temporal) ])
             B.temporal_models);
      ]
      [];
  ]

(* ---------------- every target ---------------- *)

let build ~seeds target look =
  let result name =
    match look name with
    | Some r -> r
    | None -> Report.aborted_result ("campaign job " ^ name ^ " did not complete")
  in
  let rows =
    lazy
      (List.map
         (fun (wl : W.t) ->
           Report.of_results ~name:wl.name ~lookup:(fun v -> result (wl.name ^ "/" ^ v)))
         Registry.all)
  in
  List.concat_map
    (function
      | "table2" -> [ table2 () ]
      | "table4" -> [ table4 (Lazy.force rows) ]
      | "fig10" -> [ fig10 (Lazy.force rows) ]
      | "fig11" -> [ fig11 (Lazy.force rows) ]
      | "fig12" -> [ fig12 (Lazy.force rows) ]
      | "fig13" -> [ fig13 () ]
      | "baselines" -> [ baselines (Lazy.force rows) ]
      | "extensions" -> [ extensions result ]
      | "juliet" -> [ juliet result ]
      | "faults" -> faults ~seeds look
      | "temporal" -> temporal result
      | t -> invalid_arg ("unknown experiment " ^ t))
    (printed target)
