(* Temporal-safety mode: free-epoch generations in the metadata records,
   mirrored into the pointer tag, checked at promote and at the
   allocator free paths. Covers the per-scheme epoch semantics
   (including the MAC-less global-table rows), deterministic generation
   wraparound (the documented ABA-after-16 limitation), the
   wipe-vs-legitimate-free classification split, the Juliet temporal
   families, and the two free-path regressions (mixed dispatch, baseline
   double free). *)

open Core
module J = Ifp_juliet.Juliet
module Verdict = Ifp_faultinject.Verdict

let contains_sub ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let mk_ctx ?(temporal = true) () =
  let mem = Memory.create () in
  Memory.map mem ~base:0x1000L ~size:(1 lsl 20);
  Memory.map mem ~base:0x200000L ~size:(1 lsl 16);
  Memory.map mem ~base:0x300000L ~size:(4096 * 16);
  let meta =
    Meta.create ~temporal ~memory:mem ~mac_key:0x7E3AL
      ~layout_region:(0x200000L, 1 lsl 16)
      ~global_table:(0x300000L, 256) ()
  in
  (mem, meta)

let temporal_cfg alloc = { Vm.ifp_wrapped with Vm.alloc; temporal = true }

(* ---- per-scheme free-epoch semantics ---- *)

let test_local_offset_epoch () =
  let _, meta = mk_ctx () in
  let p = Meta.Local_offset.register meta ~base:0x2000L ~size:48 ~layout_ptr:0L in
  (match (Promote.run meta p).Promote.outcome with
  | Promote.Retrieved _ -> ()
  | _ -> Alcotest.fail "live pointer should promote");
  Alcotest.(check bool) "first free ok" true
    (Meta.Local_offset.deregister_temporal meta p = `Freed_ok);
  let r = Promote.run meta p in
  (match r.Promote.outcome with
  | Promote.Temporal_stale { freed = true; _ } -> ()
  | _ -> Alcotest.fail "stale promote must report Temporal_stale");
  Alcotest.(check bool) "stale pointer poisoned Freed" true
    (Tag.poison r.Promote.ptr = Tag.Freed);
  Alcotest.(check bool) "bounds cleared" true
    (r.Promote.bounds = Bounds.No_bounds);
  Alcotest.(check bool) "second free is the double-free witness" true
    (Meta.Local_offset.deregister_temporal meta p = `Already_freed)

let test_global_table_epoch () =
  let _, meta = mk_ctx () in
  (* MAC-less rows: the epoch lives in the row bits themselves *)
  let p =
    match Meta.Global_table.register meta ~base:0x4000L ~size:4096 ~layout_ptr:0L with
    | Some p -> p
    | None -> Alcotest.fail "table full"
  in
  let rows = Meta.Global_table.rows_in_use meta in
  Alcotest.(check bool) "first free ok" true
    (Meta.Global_table.deregister_temporal meta p = `Freed_ok);
  (match (Promote.run meta p).Promote.outcome with
  | Promote.Temporal_stale { freed = true; _ } -> ()
  | _ -> Alcotest.fail "freed row must promote Temporal_stale");
  Alcotest.(check bool) "re-free detected" true
    (Meta.Global_table.deregister_temporal meta p = `Already_freed);
  (* the row is quarantined, not recycled: it stays in use after the
     free, and a new registration must not resurrect its index *)
  Alcotest.(check int) "quarantined row still counted in use" rows
    (Meta.Global_table.rows_in_use meta);
  (match Meta.Global_table.register meta ~base:0x8000L ~size:4096 ~layout_ptr:0L with
  | Some q ->
    Alcotest.(check bool) "quarantined row not reused" true
      (Tag.table_index q <> Tag.table_index p)
  | None -> ());
  Alcotest.(check int) "new registration claims a fresh row" (rows + 1)
    (Meta.Global_table.rows_in_use meta)

let test_subheap_epoch () =
  let mem, meta = mk_ctx () in
  let tenv = Ctype.empty_tenv in
  let a =
    Subheap_alloc.create ~meta ~tenv ~memory:mem ~base:0x1000_0000L
      ~size_log2:22
  in
  let p, _ = a.Alloc.malloc ~size:32 ~cty:None in
  let q, _ = a.Alloc.malloc ~size:32 ~cty:None in
  Alcotest.(check bool) "subheap scheme" true (Tag.scheme p = Tag.Subheap);
  a.Alloc.free p |> ignore;
  (match (Promote.run meta p).Promote.outcome with
  | Promote.Temporal_stale { freed = true; _ } -> ()
  | _ -> Alcotest.fail "freed slot must promote Temporal_stale");
  (* the sibling slot in the same block is untouched *)
  (match (Promote.run meta q).Promote.outcome with
  | Promote.Retrieved _ -> ()
  | _ -> Alcotest.fail "live sibling slot must still promote");
  (match a.Alloc.free p with
  | exception Trap.Trap (Trap.Double_free _) -> ()
  | _ -> Alcotest.fail "second free must trap Double_free");
  (* quarantine: freed slots are never handed out again *)
  let r, _ = a.Alloc.malloc ~size:32 ~cty:None in
  Alcotest.(check bool) "freed slot not recycled" true
    (not (Int64.equal (Tag.addr r) (Tag.addr p)))

let test_gen_wraparound () =
  let _, meta = mk_ctx () in
  let base = 0x2000L in
  let p0 = Meta.Local_offset.register meta ~base ~size:48 ~layout_ptr:0L in
  Alcotest.(check int) "fresh pointer carries gen 0" 0 (Tag.gen p0);
  (* free/reuse the same address through all 16 generations: each
     re-registration inherits the bumped epoch, so the original pointer
     stays stale... *)
  let last = ref p0 in
  for k = 1 to Tag.gen_states - 1 do
    Alcotest.(check bool) "free ok" true
      (Meta.Local_offset.deregister_temporal meta !last = `Freed_ok);
    let p = Meta.Local_offset.register meta ~base ~size:48 ~layout_ptr:0L in
    Alcotest.(check int) "reused slot inherits bumped gen" k (Tag.gen p);
    (match (Promote.run meta p0).Promote.outcome with
    | Promote.Temporal_stale { freed = false; gen_ptr = 0; gen_meta } ->
      Alcotest.(check int) "mismatch against current epoch" k gen_meta
    | _ -> Alcotest.fail "recycled allocation must be Temporal_stale");
    last := p
  done;
  (* ...until the 4-bit generation wraps: after 16 epochs the stale
     pointer aliases the live record again (the documented ABA window) *)
  Alcotest.(check bool) "free 16 ok" true
    (Meta.Local_offset.deregister_temporal meta !last = `Freed_ok);
  let p16 = Meta.Local_offset.register meta ~base ~size:48 ~layout_ptr:0L in
  Alcotest.(check int) "generation wrapped" 0 (Tag.gen p16);
  match (Promote.run meta p0).Promote.outcome with
  | Promote.Retrieved _ -> ()
  | _ -> Alcotest.fail "wrapped generation aliases (ABA after 16)"

let test_wipe_vs_free_classification () =
  (* a legitimate free leaves a valid-but-stale record (Temporal_stale);
     an attacker wipe garbles it (Metadata_invalid / MAC) — the two must
     not be conflated *)
  let _, meta = mk_ctx () in
  let p = Meta.Local_offset.register meta ~base:0x2000L ~size:48 ~layout_ptr:0L in
  let q = Meta.Local_offset.register meta ~base:0x3000L ~size:48 ~layout_ptr:0L in
  ignore (Meta.Local_offset.deregister_temporal meta p);
  (match Meta.live_entries meta with
  | entries -> (
    let qe =
      List.find
        (fun (e : Meta.live_entry) ->
          Int64.equal e.Meta.meta_addr (Tag.metadata_addr_local_offset q))
        entries
    in
    Meta.wipe_entry meta qe));
  (match (Promote.run meta p).Promote.outcome with
  | Promote.Temporal_stale _ -> ()
  | _ -> Alcotest.fail "freed record must classify Temporal_stale");
  match (Promote.run meta q).Promote.outcome with
  | Promote.Metadata_invalid _ -> ()
  | Promote.Temporal_stale _ ->
    Alcotest.fail "wiped record must NOT classify Temporal_stale"
  | _ -> Alcotest.fail "wiped record must classify Metadata_invalid"

(* ---- free-path regressions ---- *)

let test_mixed_dispatch_regression () =
  (* a Subheap-tagged pointer whose free legitimately costs zero (its
     control register was never configured) must never fall through to
     the wrapped heap — the old physical-equality probe did exactly
     that, pushing a never-allocated address into the baseline bins *)
  let mem, meta = mk_ctx ~temporal:false () in
  let base_alloc =
    Baseline_alloc.create ~memory:mem ~base:0x2000_0000L ~size:(1 lsl 22)
  in
  let wrapped = Wrapped_alloc.create ~meta ~tenv:Ctype.empty_tenv ~base_alloc in
  let subheap =
    Subheap_alloc.create ~meta ~tenv:Ctype.empty_tenv ~memory:mem
      ~base:0x1000_0000L ~size_log2:22
  in
  let mixed = Mixed_alloc.create ~subheap ~wrapped in
  let w, _ = wrapped.Alloc.malloc ~size:64 ~cty:None in
  let frees_before = (wrapped.Alloc.stats ()).Alloc.n_frees in
  let evil = Meta.Subheap.tag_pointer ~creg:15 ~addr:(Tag.addr w) in
  mixed.Alloc.free evil |> ignore;
  Alcotest.(check int) "wrapped heap untouched by stray subheap free"
    frees_before
    ((wrapped.Alloc.stats ()).Alloc.n_frees);
  (* ownership drives the schemes both sides can produce *)
  Alcotest.(check bool) "wrapped owns its pointer" true (wrapped.Alloc.owns w);
  Alcotest.(check bool) "subheap does not" false (subheap.Alloc.owns w);
  mixed.Alloc.free w |> ignore;
  Alcotest.(check int) "legitimate free routed to wrapped" (frees_before + 1)
    ((wrapped.Alloc.stats ()).Alloc.n_frees)

let test_baseline_double_free_detected () =
  let mem, _ = mk_ctx ~temporal:false () in
  let a = Baseline_alloc.create ~memory:mem ~base:0x1000_0000L ~size:(1 lsl 20) in
  let p, _ = a.Alloc.malloc ~size:48 ~cty:None in
  a.Alloc.free p |> ignore;
  (match a.Alloc.free p with
  | exception Alloc.Double_free a -> Alcotest.(check int64) "address" p a
  | _ -> Alcotest.fail "glibc-style double free must be detected");
  (* the classic tcache bypass stays a bypass: free / malloc / free *)
  let q, _ = a.Alloc.malloc ~size:48 ~cty:None in
  Alcotest.(check int64) "chunk recycled" p q;
  a.Alloc.free p |> ignore

let test_baseline_double_free_aborts_vm () =
  let prog =
    let open Ifp_compiler.Ir in
    program ~tenv:Ctype.empty_tenv ~globals:[]
      [
        func "main" [] Ctype.I64
          [
            Let ("p", Ctype.Ptr Ctype.I64, Malloc (Ctype.I64, i 4));
            Free (v "p");
            Free (v "p");
            Return (Some (i 0));
          ];
      ]
  in
  match (Vm.run ~config:Vm.baseline prog).Vm.outcome with
  | Vm.Aborted (Vm.Program_error m) ->
    Alcotest.(check bool) "names the double free" true
      (contains_sub ~sub:"double free" m)
  | _ -> Alcotest.fail "baseline double free must abort the program"

(* ---- Juliet temporal families ---- *)

let tcases = lazy (J.temporal_cases ())

let test_temporal_case_count () =
  Alcotest.(check int) "3 kinds x 2 flows" 6 (List.length (Lazy.force tcases))

let test_temporal_detection_both_allocs () =
  List.iter
    (fun (name, alloc) ->
      let config = temporal_cfg alloc in
      let t = Verdict.tally (Test_juliet.rows (name ^ "-t") config (Lazy.force tcases)) in
      Alcotest.(check int) (name ^ " detects all temporal bads") t.total t.detected;
      Alcotest.(check int) (name ^ " no false positives") 0 t.pass_failures)
    [ ("wrapped", Vm.Alloc_wrapped); ("subheap", Vm.Alloc_subheap) ]

let test_spatial_misses_temporal () =
  (* the point of the extension: a spatial-only config promotes the
     stale pointer against the churn object's valid metadata *)
  let t = Verdict.tally (Test_juliet.rows "wrapped" Vm.ifp_wrapped (Lazy.force tcases)) in
  Alcotest.(check int) "spatial IFP misses every temporal bad" t.total t.missed;
  Alcotest.(check int) "and stays clean on the goods" 0 t.pass_failures;
  let tb = Verdict.tally (Test_juliet.rows "baseline" Vm.baseline (Lazy.force tcases)) in
  Alcotest.(check int) "baseline detects nothing" 0 tb.detected;
  Alcotest.(check int) "baseline goods fine" 0 tb.pass_failures

let test_temporal_trap_taxonomy () =
  let config = temporal_cfg Vm.Alloc_wrapped in
  let trap_of kind =
    let case =
      List.find (fun (c : J.case) -> c.J.kind = kind && c.J.flow = J.Via_field)
        (Lazy.force tcases)
    in
    match (Vm.run ~config case.J.bad).Vm.outcome with
    | Vm.Trapped t -> t
    | _ -> Alcotest.fail (J.kind_to_string kind ^ " did not trap")
  in
  (match trap_of J.Use_after_free with
  | Trap.Use_after_free _ -> ()
  | t -> Alcotest.fail ("UAF load: " ^ Trap.to_string t));
  (match trap_of J.Write_to_freed with
  | Trap.Write_to_freed _ -> ()
  | t -> Alcotest.fail ("freed store: " ^ Trap.to_string t));
  match trap_of J.Double_free with
  | Trap.Double_free _ -> ()
  | t -> Alcotest.fail ("double free: " ^ Trap.to_string t)

let test_engines_agree_on_temporal () =
  let config = temporal_cfg Vm.Alloc_wrapped in
  let case = List.hd (Lazy.force tcases) in
  List.iter
    (fun (name, prog) ->
      Alcotest.(check (list string)) name []
        (List.map Ifp_fuzz.Oracle.to_line
           (fst (Ifp_fuzz.Oracle.agree name config prog))))
    [ ("bad", case.J.bad); ("good", case.J.good) ]

(* ---- fault-injection classification split ---- *)

let test_fault_classes_split () =
  let module Fault = Ifp_faultinject.Fault in
  let module Victim = Ifp_workloads.Victim in
  let config = temporal_cfg Vm.Alloc_wrapped in
  let run cls =
    let plan = Fault.default_plan cls ~seed:3L in
    Vm.run
      ~config:{ config with Vm.fault_plan = Some plan }
      (Victim.temporal_program ())
  in
  (* a legitimate injected free surfaces as the temporal trap family... *)
  (match (run Fault.Uaf_use).Vm.outcome with
  | Vm.Trapped (Trap.Use_after_free _ | Trap.Write_to_freed _ | Trap.Double_free _)
    -> ()
  | o ->
    Alcotest.fail
      ("uaf_use should trap temporally, got "
      ^
      match o with
      | Vm.Trapped t -> Trap.to_string t
      | Vm.Finished _ -> "finished"
      | Vm.Aborted m -> Vm.abort_reason_string m));
  (* ...a wipe of the same records surfaces as metadata corruption *)
  match (run Fault.Stale_meta).Vm.outcome with
  | Vm.Trapped
      ( Trap.Mac_mismatch _ | Trap.Invalid_metadata _
      | Trap.Poisoned_dereference _ | Trap.Bounds_violation _
      | Trap.Memory_fault _ ) ->
    ()
  | Vm.Trapped t ->
    Alcotest.fail ("stale_meta must not classify temporally: " ^ Trap.to_string t)
  | _ -> Alcotest.fail "stale_meta should trap under armed promote"

let tests =
  [
    Alcotest.test_case "local-offset free epoch" `Quick test_local_offset_epoch;
    Alcotest.test_case "global-table free epoch (MAC-less rows)" `Quick
      test_global_table_epoch;
    Alcotest.test_case "subheap free epoch + quarantine" `Quick
      test_subheap_epoch;
    Alcotest.test_case "generation wraparound (ABA after 16)" `Quick
      test_gen_wraparound;
    Alcotest.test_case "wipe vs legitimate free classify differently" `Quick
      test_wipe_vs_free_classification;
    Alcotest.test_case "mixed free dispatch regression" `Quick
      test_mixed_dispatch_regression;
    Alcotest.test_case "baseline double-free detection" `Quick
      test_baseline_double_free_detected;
    Alcotest.test_case "baseline double free aborts the VM" `Quick
      test_baseline_double_free_aborts_vm;
    Alcotest.test_case "temporal Juliet case count" `Quick
      test_temporal_case_count;
    Alcotest.test_case "temporal Juliet: both allocators detect all" `Quick
      test_temporal_detection_both_allocs;
    Alcotest.test_case "temporal Juliet: spatial mode misses all" `Quick
      test_spatial_misses_temporal;
    Alcotest.test_case "temporal trap taxonomy" `Quick
      test_temporal_trap_taxonomy;
    Alcotest.test_case "engines bit-identical under temporal mode" `Quick
      test_engines_agree_on_temporal;
    Alcotest.test_case "uaf_use vs stale_meta classification" `Quick
      test_fault_classes_split;
  ]
