(* Tests for lib/faultinject: every fault class lands and is classified
   under the Ifp variant, Baseline shows the expected silent corruption
   for heap smashes, injection is deterministic per seed, and fault
   campaigns are engine-clean (serial = parallel, plans in the digest). *)

open Core
module Fault = Ifp_faultinject.Fault
module Verdict = Ifp_faultinject.Verdict
module Victim = Ifp_workloads.Victim
module Job = Ifp_campaign.Job
module Engine = Ifp_campaign.Engine
module Artifacts = Ifp_artifacts.Artifacts

let victim = lazy (Victim.program ())

let run_planned config plan =
  Vm.run ~config:{ config with Vm.fault_plan = plan } (Lazy.force victim)

let classify_seed config cls seed =
  let plan = Fault.default_plan cls ~seed:(Int64.of_int seed) in
  let golden = Vm.observe (run_planned config None) in
  let r = run_planned config (Some plan) in
  ( r.Vm.fault_injections <> [],
    Verdict.classify ~expect:(Fault.expected_trap cls) ~golden (Vm.observe r) )

(* Every class, on the full Ifp variant: the fault fires, the harness
   survives, and the run is classified. The defended classes — tag,
   bounds, metadata, MAC, stale metadata — must be detected with a
   class-appropriate trap; a heap smash hits unprotected data and may
   land anywhere in the three-way split. *)
let test_ifp_every_class_classified () =
  List.iter
    (fun cls ->
      List.iter
        (fun seed ->
          let name = Printf.sprintf "%s/%d" (Fault.class_name cls) seed in
          let fired, c = classify_seed Vm.ifp_wrapped cls seed in
          Alcotest.(check bool) (name ^ ": fired under Ifp") true fired;
          match cls with
          | Fault.Heap_smash ->
            Alcotest.(check bool) (name ^ ": classified") true
              (match c with
              | Verdict.Detected _ | Verdict.Silent | Verdict.Benign -> true
              | Verdict.Error _ -> false)
          | _ ->
            Alcotest.(check bool)
              (name ^ ": detected with the expected trap")
              true
              (match c with
              | Verdict.Detected { expected; _ } -> expected
              | _ -> false))
        [ 0; 1 ])
    Fault.all_classes

(* Baseline has no defense: heap smashes must produce silent corruption
   on at least one seed (never a trap — there is no hardware to trap). *)
let test_baseline_heap_smash_is_silent () =
  let seeds = [ 0; 1; 2; 3; 4 ] in
  let results =
    List.map (fun s -> classify_seed Vm.baseline Fault.Heap_smash s) seeds
  in
  List.iter
    (fun (_, c) ->
      Alcotest.(check bool) "baseline never detects" false
        (match c with Verdict.Detected _ -> true | _ -> false))
    results;
  Alcotest.(check bool) "some smash silently corrupts baseline" true
    (List.exists (fun (fired, c) -> fired && c = Verdict.Silent) results)

(* Every faulted outcome x fired x golden-equal lands in exactly one
   column of the faults tables; the mapping both faults goldens rest on.
   The class is [Bounds_corrupt], for which a bounds violation is the
   expected trap and a MAC mismatch is not. *)
let test_fault_columns () =
  let golden = { Verdict.outcome = `Finished 7L; output = [ "golden" ] } in
  let outcomes =
    [
      ("finished", `Finished 7L);
      ("trapped-expected", `Trapped (Trap.Bounds_violation { ptr = 0L; lo = 0L; hi = 0L; size = 8 }));
      ("trapped-unexpected", `Trapped (Trap.Mac_mismatch { ptr = 0L }));
      ("aborted", `Aborted "cycle budget");
    ]
  in
  let expected =
    [
      ("finished", true, true, "benign"); ("finished", true, false, "silent");
      ("finished", false, true, "not-fired"); ("finished", false, false, "not-fired");
      ("trapped-expected", true, true, "detected"); ("trapped-expected", true, false, "detected");
      ("trapped-expected", false, true, "detected"); ("trapped-expected", false, false, "detected");
      ("trapped-unexpected", true, true, "other-trap");
      ("trapped-unexpected", true, false, "other-trap");
      ("trapped-unexpected", false, true, "other-trap");
      ("trapped-unexpected", false, false, "other-trap");
      ("aborted", true, true, "aborted"); ("aborted", true, false, "aborted");
      ("aborted", false, true, "aborted"); ("aborted", false, false, "aborted");
    ]
  in
  List.iter
    (fun (outcome, fired, golden_equal, column) ->
      let faulted =
        {
          Verdict.outcome = List.assoc outcome outcomes;
          output = (if golden_equal then golden.output else [ "corrupted" ]);
        }
      in
      Alcotest.(check string)
        (Printf.sprintf "%s fired=%b golden-equal=%b" outcome fired golden_equal)
        column
        (Artifacts.fault_column ~fired
           (Verdict.classify ~expect:(Fault.expected_trap Fault.Bounds_corrupt) ~golden faulted)))
    expected

(* Same plan, same program: identical corruption record, outcome and
   output — the property that makes campaign results cacheable. *)
let test_same_seed_same_classification () =
  List.iter
    (fun cls ->
      let plan = Fault.default_plan cls ~seed:7L in
      let r1 = run_planned Vm.ifp_wrapped (Some plan) in
      let r2 = run_planned Vm.ifp_wrapped (Some plan) in
      Alcotest.(check (list string))
        (Fault.class_name cls ^ ": same injections")
        r1.Vm.fault_injections r2.Vm.fault_injections;
      Alcotest.(check bool)
        (Fault.class_name cls ^ ": same outcome")
        true
        (r1.Vm.outcome = r2.Vm.outcome && r1.Vm.output = r2.Vm.output))
    Fault.all_classes

(* A fault plan is part of the job identity: a planned job must never
   share a cache entry with the unplanned run of the same config. *)
let test_plan_in_job_digest () =
  let prog = Lazy.force victim in
  let plain =
    Job.make ~name:"v/plain" ~group:"v" ~variant:"ifp" ~config:Vm.ifp_wrapped
      prog
  in
  let planned seed =
    Job.make ~name:"v/planned" ~group:"v" ~variant:"ifp"
      ~config:
        {
          Vm.ifp_wrapped with
          Vm.fault_plan = Some (Fault.default_plan Fault.Tag_flip ~seed);
        }
      prog
  in
  Alcotest.(check bool) "plan changes digest" false
    (Job.digest plain = Job.digest (planned 0L));
  Alcotest.(check bool) "seed changes digest" false
    (Job.digest (planned 0L) = Job.digest (planned 1L))

(* A small fault campaign through the engine is worker-count invariant. *)
let test_campaign_serial_parallel () =
  let prog = Lazy.force victim in
  let jobs =
    List.concat_map
      (fun cls ->
        List.map
          (fun seed ->
            Job.make
              ~name:(Printf.sprintf "%s/%d" (Fault.class_name cls) seed)
              ~group:"fault" ~variant:"ifp"
              ~config:
                {
                  Vm.ifp_wrapped with
                  Vm.fault_plan =
                    Some (Fault.default_plan cls ~seed:(Int64.of_int seed));
                }
              prog)
          [ 0; 1 ])
      [ Fault.Tag_flip; Fault.Mac_flip; Fault.Heap_smash ]
  in
  let serial, s_stats = Engine.run ~workers:1 jobs in
  let parallel, p_stats = Engine.run ~workers:4 jobs in
  Alcotest.(check int) "all completed serially" (List.length jobs)
    s_stats.Engine.completed;
  Alcotest.(check int) "all completed in parallel" (List.length jobs)
    p_stats.Engine.completed;
  Array.iteri
    (fun idx (s : Engine.outcome) ->
      let p = parallel.(idx) in
      Alcotest.(check string) "submission order kept" s.Engine.job.Job.name
        p.Engine.job.Job.name;
      Alcotest.(check bool)
        (s.Engine.job.Job.name ^ ": results identical")
        true
        (s.Engine.result = p.Engine.result))
    serial

let tests =
  [
    Alcotest.test_case "Ifp: every class fires and is classified" `Quick
      test_ifp_every_class_classified;
    Alcotest.test_case "Baseline: heap smash corrupts silently" `Quick
      test_baseline_heap_smash_is_silent;
    Alcotest.test_case "every outcome lands in one faults column" `Quick
      test_fault_columns;
    Alcotest.test_case "same seed, same classification" `Quick
      test_same_seed_same_classification;
    Alcotest.test_case "fault plan is part of the job digest" `Quick
      test_plan_in_job_digest;
    Alcotest.test_case "fault campaign: serial = parallel" `Slow
      test_campaign_serial_parallel;
  ]
