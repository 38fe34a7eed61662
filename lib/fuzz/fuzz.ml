module Job = Ifp_campaign.Job
module Vm = Ifp_vm.Vm
module Prng = Ifp_util.Prng
open Ifp_compiler

let salt = "fuzz-battery-v1"

let case_seed ~campaign_seed ~round ~idx =
  Prng.mix2 (Prng.mix2 campaign_seed (Int64.of_int round)) (Int64.of_int idx)

let subheap_config =
  List.assoc "ifp-subheap" Oracle.configs

let job ~knobs ~campaign_seed ~round ~idx =
  let seed = case_seed ~campaign_seed ~round ~idx in
  let prog = Gen.generate ~knobs ~seed () in
  Job.make ~salt
    ~name:(Printf.sprintf "fuzz/r%d/c%d" round idx)
    ~group:(Printf.sprintf "round%d" round)
    ~variant:"battery"
    ~config:{ subheap_config with Vm.seed }
    prog

let runner (j : Job.t) =
  let failures, golden = Oracle.check ~fault_seed:j.Job.config.Vm.seed j.Job.prog in
  {
    golden with
    Vm.outcome = Vm.Finished (if failures = [] then 0L else 1L);
    Vm.output = List.map Oracle.to_line failures;
    Vm.trace = [];
    Vm.fault_injections = [];
  }

let failures_of (r : Vm.result) = List.filter_map Oracle.of_line r.Vm.output

let reproduces ~fault_seed ~key text =
  match Parser.parse text with
  | exception _ -> false
  | p -> (
    match Typecheck.check_program p with
    | exception _ -> false
    | () ->
      let failures, _ = Oracle.check ~fault_seed p in
      List.exists (fun f -> String.equal (Oracle.failure_key f) key) failures)

let minimize ?(budget = 1200) ~fault_seed ~key prog =
  let keep cand = reproduces ~fault_seed ~key (Ir_pp.program_to_string cand) in
  let small = Shrink.minimize ~budget ~keep prog in
  (* canonicalize: the corpus stores the printed text, so make the
     returned AST the parse of that text (printing is then a fixpoint) *)
  let text = Ir_pp.program_to_string small in
  match Parser.parse text with p -> p | exception _ -> small

let check_source ?(fault_seed = 1L) src =
  Result.map
    (fun p -> fst (Oracle.check ~fault_seed p))
    (Frontend.check ~file:"<source>" src)

(* ---- corpus ---------------------------------------------------------- *)

let text_digest src = String.sub (Digest.to_hex (Digest.string src)) 0 12

let corpus_write ~dir ~src ~seed ~keys =
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  let digest = text_digest src in
  let write path content =
    let oc = open_out path in
    output_string oc content;
    close_out oc
  in
  write (Filename.concat dir (digest ^ ".minic")) src;
  write
    (Filename.concat dir (digest ^ ".expect"))
    (Printf.sprintf "seed %Ld\n%s"
       seed
       (String.concat "" (List.map (fun k -> "failure " ^ k ^ "\n") keys)));
  digest

let corpus_entries ~dir =
  if not (Sys.file_exists dir) then []
  else
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".minic")
    |> List.sort compare
    |> List.map (fun f ->
           let path = Filename.concat dir f in
           let src = In_channel.with_open_text path In_channel.input_all in
           (Filename.chop_suffix f ".minic", src))
