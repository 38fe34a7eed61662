(* Tests for the comparator models and the hardware area model. *)

open Core
module B = Ifp_baselines.Baselines
module H = Ifp_hwmodel.Hwmodel

(* treeadd under baseline and subheap, simulated once for both cases *)
let sample_rows =
  lazy
    (let wl = Option.get (Ifp_workloads.Registry.find "treeadd") in
     let prog = Lazy.force wl.Ifp_workloads.Workload.prog in
     (Vm.run ~config:Vm.baseline prog, Vm.run ~config:Vm.ifp_subheap prog))

let test_projection_basics () =
  let baseline, ifp = Lazy.force sample_rows in
  List.iter
    (fun model ->
      let p = B.project model ~baseline ~ifp in
      Alcotest.(check bool)
        (model.B.name ^ " overhead >= 1")
        true
        (p.B.instr_overhead >= 1.0 && p.cycle_overhead >= 1.0))
    B.all

let test_framer_heavier_than_mte () =
  let baseline, ifp = Lazy.force sample_rows in
  let ov m = (B.project m ~baseline ~ifp).B.cycle_overhead in
  Alcotest.(check bool) "FRAMER >> MTE" true (ov B.framer > ov B.mte);
  Alcotest.(check bool) "SoftBound > MTE" true (ov B.softbound > ov B.mte)

let test_detection_table () =
  Alcotest.(check bool) "MPX catches subobject" true
    (B.detects B.mpx Ifp_juliet.Juliet.Intra_object = B.Full);
  Alcotest.(check bool) "ASan misses subobject" true
    (B.detects B.asan Ifp_juliet.Juliet.Intra_object = B.None_);
  Alcotest.(check bool) "ASan catches object overflow" true
    (B.detects B.asan Ifp_juliet.Juliet.Overflow = B.Object_only);
  (match B.detects B.mte Ifp_juliet.Juliet.Overflow with
  | B.Probabilistic p -> Alcotest.(check (float 0.01)) "15/16" 0.9375 p
  | _ -> Alcotest.fail "MTE should be probabilistic")

let test_hw_totals_match_paper () =
  Alcotest.(check int) "vanilla LUTs" 37_088 H.vanilla_luts;
  Alcotest.(check int) "modified LUTs" 59_261 (H.total_luts H.full);
  Alcotest.(check int) "modified FFs" 32_545 (H.total_ffs H.full);
  Alcotest.(check bool) "about +60%" true
    (abs_float (H.lut_increase_pct H.full -. 60.0) < 2.0)

let test_hw_stage_shares () =
  let stages = H.by_stage H.full in
  let total = List.fold_left (fun a (_, l) -> a + l) 0 stages in
  let exec = List.assoc H.Execute stages in
  let issue = List.assoc H.Issue stages in
  (* paper: execute ~62%, issue ~29% of the increase *)
  let share x = float_of_int x /. float_of_int total in
  Alcotest.(check bool) "execute ~62%" true (abs_float (share exec -. 0.62) < 0.05);
  Alcotest.(check bool) "issue ~29%" true (abs_float (share issue -. 0.29) < 0.05)

let test_hw_ablations () =
  let no_walker = { H.full with layout_walker = false } in
  Alcotest.(check int) "walker saves 3059 LUTs" 3059
    (H.added_luts H.full - H.added_luts no_walker);
  let no_bregs = { H.full with bounds_registers = false } in
  Alcotest.(check bool) "no-bregs under 30% less" true
    (H.added_luts no_bregs < H.added_luts H.full - 6000);
  let one_scheme = { H.full with schemes = [ "local" ] } in
  Alcotest.(check bool) "fewer schemes, less area" true
    (H.added_luts one_scheme < H.added_luts H.full)

let test_hw_temporal_pricing () =
  (* temporal off = exactly the paper's calibrated totals *)
  Alcotest.(check bool) "full has temporal off" false H.full.H.temporal;
  Alcotest.(check int) "temporal-off totals unchanged" 59_261
    (H.total_luts H.full);
  let extra = H.added_luts H.full_temporal - H.added_luts H.full in
  let expect =
    List.fold_left (fun a (c : H.component) -> a + c.H.luts) 0
      H.temporal_components
  in
  Alcotest.(check int) "temporal adds its component LUTs" expect extra;
  Alcotest.(check bool) "small relative to the IFP unit" true
    (extra > 0 && extra < 1000);
  (* the epoch machinery lives in the execute stage *)
  let exec cfg = List.assoc H.Execute (H.by_stage cfg) in
  Alcotest.(check int) "all of it in execute" extra
    (exec H.full_temporal - exec H.full);
  (* metadata pricing: only the subheap block record grows *)
  Alcotest.(check int) "local-offset epoch free" 0
    (List.assoc "local-offset object" H.temporal_metadata_bytes);
  Alcotest.(check int) "subheap block doubles" 32
    (List.assoc "subheap block" H.temporal_metadata_bytes);
  Alcotest.(check int) "global-table epoch free" 0
    (List.assoc "global-table row" H.temporal_metadata_bytes)

let tests =
  [
    Alcotest.test_case "projection basics" `Slow test_projection_basics;
    Alcotest.test_case "comparator ordering" `Slow test_framer_heavier_than_mte;
    Alcotest.test_case "detection table" `Quick test_detection_table;
    Alcotest.test_case "hw totals vs paper" `Quick test_hw_totals_match_paper;
    Alcotest.test_case "hw stage shares" `Quick test_hw_stage_shares;
    Alcotest.test_case "hw ablations" `Quick test_hw_ablations;
    Alcotest.test_case "hw temporal pricing" `Quick test_hw_temporal_pricing;
  ]
