(* The workload sources against the programs built into the binary:
   each lib/workloads/NAME.minic, loaded through the front end at run
   time, is the embedded program, and a workload printed by [Ir_pp]
   (what [ifp_run NAME --dump-ir] shows) re-parses to the same program,
   so it runs the same on every configuration. sjeng is the one that
   indexes a pointer to an array, printed ["(*b)[k]"]. *)

open Core
module W = Ifp_workloads

let source name = Filename.concat "../lib/workloads" (name ^ ".minic")

let check_ok = function Ok x -> x | Error m -> Alcotest.fail m

let embedded (w : W.Workload.t) () =
  let _, p = check_ok (Frontend.load (source w.name)) in
  Alcotest.(check bool) "equal_program" true (Ir.equal_program p (Lazy.force w.prog))

let reprinted (w : W.Workload.t) () =
  let p = Lazy.force w.prog in
  let q = check_ok (Frontend.check ~file:w.name (Ir_pp.program_to_string p)) in
  Alcotest.(check bool) "equal_program" true (Ir.equal_program p q)

let tests =
  List.concat_map
    (fun (w : W.Workload.t) ->
      [
        Alcotest.test_case (w.name ^ " source is the embedded program") `Quick (embedded w);
        Alcotest.test_case (w.name ^ " printed program re-parses") `Quick (reprinted w);
      ])
    W.Registry.all
