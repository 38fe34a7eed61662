(* The paper's claims are named predicates over the typed artifacts of
   lib/artifacts. Every real `ifp_experiments` run checks them and exits
   1 naming each one that fails, so the runtest byte gates check them on
   the simulated matrix. These tests check the mechanism without
   simulating: in a fabricated campaign every claim of the paper,
   faults and temporal targets holds, and one change to that campaign
   breaks each claim under its name. The artifacts print through one
   renderer and reach the aggregate through one writer, pinned here on
   a single-row table. *)

module A = Ifp_artifacts.Artifact
module Artifacts = Ifp_artifacts.Artifacts
module Registry = Ifp_workloads.Registry
module J = Ifp_juliet.Juliet
module Vm = Ifp_vm.Vm
module Counters = Ifp_vm.Counters

let fabricated ?(outcome = Vm.Finished 0L) ~cycles ~instrs ~footprint tweak =
  let c = Counters.create () in
  c.cycles <- cycles;
  c.base_instrs <- instrs;
  tweak c;
  { (Core.Report.aborted_result "") with outcome; counters = c; mem_footprint = footprint }

(* subheap is cheaper than baseline in cycles and memory and wrapped
   dearer, the no-promote controls cheaper still; the subheap run's
   counters have the shape Table 4 reports *)
let row_result variant =
  let subheap_counters (c : Counters.t) =
    c.global_objs <- 1;
    c.local_objs <- 200;
    c.heap_objs <- 32767;
    c.promotes_valid <- 10;
    c.promotes_null <- 10;
    c.promotes_legacy <- 1
  in
  match variant with
  | "baseline" -> fabricated ~cycles:1000 ~instrs:10_000 ~footprint:100_000 ignore
  | "subheap" -> fabricated ~cycles:900 ~instrs:11_000 ~footprint:90_000 subheap_counters
  | "wrapped" -> fabricated ~cycles:1200 ~instrs:12_000 ~footprint:120_000 ignore
  | "subheap-np" -> fabricated ~cycles:850 ~instrs:10_500 ~footprint:90_000 ignore
  | "wrapped-np" -> fabricated ~cycles:1150 ~instrs:11_500 ~footprint:120_000 ignore
  | "mixed" -> fabricated ~cycles:900 ~instrs:11_000 ~footprint:80_000 ignore
  | "subheap-infer" ->
    fabricated ~cycles:900 ~instrs:11_000 ~footprint:90_000 (fun c ->
        subheap_counters c;
        c.heap_objs_layout <- c.heap_objs)
  | v -> Alcotest.failf "no fabricated variant %s" v

let cases = lazy (J.all_cases ())

let intra =
  lazy
    (List.filter_map
       (fun (c : J.case) ->
         match c.kind with J.Intra_object | J.Nested_intra -> Some c.id | _ -> None)
       (Lazy.force cases))

let mac_trap = Vm.Trapped (Ifp_isa.Trap.Mac_mismatch { ptr = 0L })
let finished = fabricated ~cycles:10 ~instrs:10 ~footprint:100 ignore

(* full IFP traps every bad case, baseline none, and the configurations
   without narrowing miss the intra-object ones; of the temporal
   configurations only the temporal-mode ones trap *)
let juliet_result id which cfg =
  let trapped =
    which = "bad"
    &&
    match cfg with
    | "wrapped" | "subheap" | "ifp-subheap-t" | "ifp-wrapped-t" -> true
    | "no-narrowing" | "subheap-np" -> not (List.mem id (Lazy.force intra))
    | _ -> false
  in
  if trapped then { finished with outcome = mac_trap } else finished

(* every injected fault fires and traps; golden and temporal-overhead
   runs finish with the same value *)
let world name =
  match String.split_on_char '/' name with
  | [ "juliet"; id; which; cfg ] -> Some (juliet_result id which cfg)
  | [ "fault"; _; _; _ ] -> Some { finished with outcome = mac_trap; fault_injections = [ "fabricated" ] }
  | [ ("golden" | "golden-t"); _ ] | [ "temporal"; _; _ ] -> Some finished
  | [ _; variant ] -> Some (row_result variant)
  | _ -> Alcotest.failf "no fabricated job %s" name

(* [name]'s result changed by [f] *)
let override name f w n = if n = name then Option.map f (w n) else w n

(* [f] mutates a copy of [name]'s counters *)
let with_counters name f =
  override name (fun (r : Vm.result) ->
      let c = { r.counters with cycles = r.counters.cycles } in
      f c;
      { r with counters = c })

let override_outcome outcome name = override name (fun (r : Vm.result) -> { r with outcome })
let with_cycles name cycles = with_counters name (fun c -> c.cycles <- cycles)

let with_footprint name footprint =
  override name (fun (r : Vm.result) -> { r with mem_footprint = footprint })

let finish_with v = override_outcome (Vm.Finished v)

let claims target w =
  List.concat_map (fun (a : A.t) -> a.claims) (Artifacts.build ~seeds:1 target w)

let verdicts name claims =
  List.filter_map (fun (c : A.claim) -> if c.name = name then Some c.holds else None) claims

(* the claim of [target] holds in the fabricated campaign and fails once
   [break] changes it *)
let bites target name break () =
  let holding = verdicts name (claims target world) in
  Alcotest.(check bool) (name ^ ": claimed") true (holding <> []);
  Alcotest.(check bool) (name ^ ": holds") true (List.for_all Fun.id holding);
  Alcotest.(check bool) (name ^ ": broken") true
    (List.mem false (verdicts name (claims target (break world))))

let paper_claims =
  [
    ("Table 4: subheap executes no more", with_counters "bh/subheap" (fun c -> c.base_instrs <- 13_000));
    ("Fig. 10: subheap beats wrapped", with_cycles "treeadd/subheap" 1300);
    ( "Fig. 12: subheap saves, wrapped costs",
      List.fold_right (fun wl w -> with_footprint (wl ^ "/subheap") 110_000 w) Registry.names );
    ( "Juliet: IFP 72/72, baseline 0/72",
      fun w n ->
        let first = (List.hd (Lazy.force cases)).id in
        override ("juliet/" ^ first ^ "/bad/wrapped") (fun _ -> row_result "baseline") w n );
    ( "walker ablation detects fewer",
      fun w n ->
        if String.ends_with ~suffix:"/no-narrowing" n then
          w (String.sub n 0 (String.length n - 12) ^ "subheap")
        else w n );
    ("extensions: mixed allocator and inference", with_footprint "em3d/mixed" 100_000);
  ]

let workload_claims =
  List.concat_map
    (fun wl ->
      [
        (wl ^ " checksums equal", finish_with 1L (wl ^ "/wrapped"));
        ( wl ^ " does work",
          with_counters (wl ^ "/subheap") (fun c ->
              c.global_objs <- 0;
              c.local_objs <- 0;
              c.heap_objs <- 0) );
      ])
    Registry.names
  @ [
      ("treeadd profile", with_counters "treeadd/subheap" (fun c -> c.promotes_null <- 0));
      ( "coremark: no subobject promote",
        with_counters "coremark/subheap" (fun c -> c.promotes_subobj <- 1) );
      ("sjeng global table", with_counters "sjeng/subheap" (fun c -> c.global_objs <- 0));
      ("anagram legacy promotes", with_counters "anagram/subheap" (fun c -> c.promotes_legacy <- 0));
      ("subheap wins on alloc-heavy", with_cycles "perimeter/subheap" 1300);
      ("subheap memory win", with_footprint "bisort/subheap" 110_000);
      ("no-promote cheaper", with_cycles "mst/wrapped-np" 1300);
    ]

(* one fault run of each named cell lands without a trap, aborts, or
   never completes *)
let fault_claims =
  [
    ("spatial fault runs: none aborted or failed", fun w n -> if n = "fault/heap_smash/baseline/0" then None else w n);
    ("tag_flip and mac_flip fully detected under ifp", finish_with 0L "fault/mac_flip/ifp/0");
    ( "temporal fault runs: none aborted or failed",
      override "fault/uaf_use/baseline/0" (fun _ -> Core.Report.aborted_result "fabricated") );
    ( "uaf_use and double_free fully detected under ifp-t and ifp-sub-t",
      finish_with 0L "fault/double_free/ifp-sub-t/0" );
  ]

let temporal_claims =
  let first = lazy (List.hd (J.temporal_cases ())).id in
  [
    ( "temporal Juliet: 6/6 under temporal mode, 0 under spatial configs",
      fun w n -> finish_with 0L ("juliet/" ^ Lazy.force first ^ "/bad/ifp-subheap-t") w n );
    ( "temporal Juliet: no good-case failures",
      fun w n -> override_outcome mac_trap ("juliet/" ^ Lazy.force first ^ "/good/ifp-wrapped") w n );
  ]
  @ List.map
      (fun wl -> ("temporal: " ^ wl ^ " checksum agrees", finish_with 1L ("temporal/" ^ wl ^ "/ifp-wrapped-t")))
      Artifacts.temporal_workloads

(* [temporal extension adds LUTs] reads only the area model, which
   test_models' "hw temporal pricing" pins; no campaign can break it *)
let test_every_claim_tested () =
  let tested = List.map fst (paper_claims @ workload_claims @ fault_claims @ temporal_claims) in
  List.iter
    (fun target ->
      List.iter
        (fun (c : A.claim) ->
          if c.name <> "temporal extension adds LUTs" then
            Alcotest.(check bool) (c.name ^ " has a test") true (List.mem c.name tested))
        (claims target world))
    [ "all"; "faults"; "temporal" ]

(* one renderer and one aggregate writer: a single-row artifact prints
   its typed cells and line values, and the aggregate carries the same
   numbers with each claim's verdict *)
let test_single_row () =
  let a =
    A.make ~id:"t" ~title:"T"
      [
        A.Table
          {
            columns = [ "benchmark"; "subheap"; "objects" ];
            rows = [ [ A.Text "bh"; A.Ratio (1.364, A.Change); A.Count (441, A.Share 438) ] ];
          };
        A.Blank;
        A.line "geo-mean {g} over {n}" [ ("g", A.Ratio (1.5, A.Times "%.2fx")); ("n", A.Count (6, A.Out_of 7)) ];
      ]
      [
        ("bh slower", fun a -> A.num (A.row a "bh" "subheap") > 1.0);
        ("bh faster", fun a -> A.num (A.row a "bh" "subheap") < 1.0);
        ("no such row", fun a -> A.num (A.row a "ft" "subheap") > 0.0);
      ]
  in
  Alcotest.(check string) "rendered"
    "== T ==\n\
     | benchmark | subheap |   objects |\n\
     |-----------|---------|-----------|\n\
     | bh        |  +36.4% | 441 (99%) |\n\
     \n\
     geo-mean 1.50x over 6/7\n\
     \n"
    (A.render a);
  Alcotest.(check string) "aggregate"
    ({|{"id":"t","title":"T","tables":[{"columns":["benchmark","subheap","objects"],|}
    ^ {|"rows":[["bh",1.364,{"n":441,"part":438}]]}],|}
    ^ {|"lines":[{"text":"geo-mean 1.50x over 6/7","values":{"g":1.5,"n":{"n":6,"of":7}}}],|}
    ^ {|"claims":[{"name":"bh slower","holds":true},{"name":"bh faster","holds":false},|}
    ^ {|{"name":"no such row","holds":false}]}|})
    (Ifp_campaign.Events.json_to_string (A.to_json a));
  Alcotest.(check (list string)) "failed claims, by name" [ "bh faster"; "no such row" ]
    (List.map (fun (_, (c : A.claim)) -> c.name) (A.failed [ a ]));
  (* claims read a cell as it prints, so a difference below the printed
     precision does not count *)
  Alcotest.(check (float 0.0)) "-0.0% reads as no change" 1.0 (A.num (A.Ratio (0.9996, A.Change)));
  Alcotest.(check (float 0.0)) "+36.4% reads as printed" (1.0 +. (36.4 /. 100.0))
    (A.num (A.Ratio (1.36444, A.Change)));
  Alcotest.(check (float 0.0)) "5.86e+05 reads as printed" 586_000.0 (A.num (A.Count (585_999, A.Sci)))

let cases_of target =
  List.map (fun (name, break) -> Alcotest.test_case name `Quick (bites target name break))

let tests =
  cases_of "all" paper_claims
  @ cases_of "faults" fault_claims
  @ cases_of "temporal" temporal_claims
  @ [
      Alcotest.test_case "every claim has a test" `Quick test_every_claim_tested;
      Alcotest.test_case "single-row artifact renders" `Quick test_single_row;
    ]

let workload_tests = cases_of "all" workload_claims
