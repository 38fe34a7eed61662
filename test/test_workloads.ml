(* The MiniC sources against the programs built into the binary, for
   the 18 workloads and the two fault-campaign victims: each
   lib/workloads/NAME.minic, loaded through the front end at run time,
   is the embedded program, and a program printed by [Ir_pp] (what
   [ifp_run NAME --dump-ir] shows for a workload) re-parses to the same
   program, so it runs the same on every configuration. sjeng is the one
   that indexes a pointer to an array, printed ["(*b)[k]"]. *)

open Core
module W = Ifp_workloads

let source name = Filename.concat "../lib/workloads" (name ^ ".minic")

let check_ok = function Ok x -> x | Error m -> Alcotest.fail m

let embedded name prog () =
  let _, p = check_ok (Frontend.load (source name)) in
  Alcotest.(check bool) "equal_program" true (Ir.equal_program p (Lazy.force prog))

let reprinted name prog () =
  let p = Lazy.force prog in
  let q = check_ok (Frontend.check ~file:name (Ir_pp.program_to_string p)) in
  Alcotest.(check bool) "equal_program" true (Ir.equal_program p q)

(* The victims, printed: a change to either file moves every fault job
   digest, and fails here first. *)
let victims_pinned () =
  Alcotest.(check string) "MD5 of the printed victims" "4d69440520b01e4af9439fa3ee9386b1"
    (Digest.to_hex
       (Digest.string
          (Ir_pp.program_to_string (W.Victim.program ())
          ^ "\x00"
          ^ Ir_pp.program_to_string (W.Victim.temporal_program ()))))

let tests =
  List.concat_map
    (fun (name, prog) ->
      [
        Alcotest.test_case (name ^ " source is the embedded program") `Quick
          (embedded name prog);
        Alcotest.test_case (name ^ " printed program re-parses") `Quick
          (reprinted name prog);
      ])
    (List.map (fun (w : W.Workload.t) -> (w.name, w.prog)) W.Registry.all
    @ [
        (W.Victim.name, lazy (W.Victim.program ()));
        (W.Victim.temporal_name, lazy (W.Victim.temporal_program ()));
      ])
  @ [ Alcotest.test_case "victim programs pinned" `Quick victims_pinned ]
