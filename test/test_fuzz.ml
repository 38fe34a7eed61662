(* The differential fuzzer: generator determinism and well-typedness,
   printer round-trips on generated programs, the oracle battery and
   engine/config agreement over every named configuration,
   greedy shrinking, failure-line encoding, and replay of the committed
   counterexample corpus in test/golden/fuzz/. *)

open Ifp_compiler
module Prng = Ifp_util.Prng
module Gen = Ifp_fuzz.Gen
module Oracle = Ifp_fuzz.Oracle
module Shrink = Ifp_fuzz.Shrink
module Fuzz = Ifp_fuzz.Fuzz

let corpus_dir = "golden/fuzz"

let seeds base n = List.init n (fun i -> Prng.mix2 base (Int64.of_int i))

(* ---- generator ------------------------------------------------------- *)

let test_determinism () =
  List.iter
    (fun seed ->
      let a = Gen.source ~knobs:Gen.quick ~seed () in
      let b = Gen.source ~knobs:Gen.quick ~seed () in
      Alcotest.(check string)
        (Printf.sprintf "seed %Ld reproducible" seed)
        a b)
    (seeds 11L 8);
  let a = Gen.source ~seed:1L () and b = Gen.source ~seed:2L () in
  Alcotest.(check bool) "distinct seeds differ" false (String.equal a b)

let test_well_typed () =
  (* every generated program parses and typechecks (Gen.generate raises
     Gen_bug otherwise), for both knob presets *)
  List.iter
    (fun seed -> ignore (Gen.generate ~knobs:Gen.quick ~seed ()))
    (seeds 100L 40);
  List.iter
    (fun seed -> ignore (Gen.generate ~knobs:Gen.default ~seed ()))
    (seeds 200L 15)

let test_roundtrip () =
  (* generated programs are parser images: print -> reparse is the
     identity, and reprinting is byte-stable *)
  List.iter
    (fun seed ->
      let p = Gen.generate ~knobs:Gen.quick ~seed () in
      let text = Ir_pp.program_to_string p in
      let p2 = Parser.parse text in
      Typecheck.check_program p2;
      Alcotest.(check bool)
        (Printf.sprintf "seed %Ld reparse equal" seed)
        true (Ir.equal_program p p2);
      Alcotest.(check string)
        (Printf.sprintf "seed %Ld reprint stable" seed)
        text
        (Ir_pp.program_to_string p2))
    (seeds 300L 12)

(* ---- oracle ---------------------------------------------------------- *)

let test_battery_green () =
  (* well-defined generated programs must pass the whole battery *)
  List.iter
    (fun seed ->
      let p = Gen.generate ~knobs:Gen.quick ~seed () in
      let failures, _ = Oracle.check ~fault_seed:seed p in
      Alcotest.(check (list string))
        (Printf.sprintf "seed %Ld battery" seed)
        []
        (List.map Oracle.failure_key failures))
    (seeds 400L 6)

let test_configs_agree () =
  (* the differential gate over every named configuration: each
     generated program runs on every engine under each of Report.configs;
     the engines must agree bit-identically and every configuration must
     compute what baseline computes *)
  let check knobs seed =
    let p = Gen.generate ~knobs ~seed () in
    let runs =
      List.map
        (fun (name, cfg) -> (name, Oracle.agree name cfg p))
        Core.Report.configs
    in
    let results = List.map (fun (name, (_, r)) -> (name, r)) runs in
    let failures =
      List.concat_map (fun (_, (fails, _)) -> fails) runs
      @ Oracle.equivalence ~baseline:(List.assoc "baseline" results) results
    in
    Alcotest.(check (list string))
      (Printf.sprintf "seed %Ld" seed)
      []
      (List.map Oracle.to_line failures)
  in
  List.iter (check Gen.quick) (seeds 800L 60);
  List.iter (check Gen.default) (seeds 900L 20)

let test_temporal_knob_off_identical () =
  (* the temporal knob must not perturb the PRNG stream when off: same
     seed, knob explicitly false = the preset's output *)
  List.iter
    (fun seed ->
      let a = Gen.source ~knobs:Gen.quick ~seed () in
      let b = Gen.source ~knobs:{ Gen.quick with Gen.temporal = false } ~seed () in
      Alcotest.(check string) (Printf.sprintf "seed %Ld" seed) a b)
    (seeds 500L 4)

let test_temporal_battery () =
  (* safe programs: finish under temporal mode, engines agree, and the
     armed uaf_use / double_free plans never classify silent *)
  List.iter
    (fun seed ->
      let p = Gen.generate ~knobs:Gen.quick ~seed () in
      Alcotest.(check (list string))
        (Printf.sprintf "seed %Ld temporal battery" seed)
        []
        (List.map Oracle.failure_key (Oracle.check_temporal ~fault_seed:seed p)))
    (seeds 600L 4)

let test_temporal_variants_trap () =
  (* temporal-knob programs: must die with a temporal trap under both
     temporal configs, bit-identically across engines *)
  List.iter
    (fun seed ->
      let knobs = { Gen.quick with Gen.temporal = true } in
      let p = Gen.generate ~knobs ~seed () in
      Alcotest.(check (list string))
        (Printf.sprintf "seed %Ld temporal variant" seed)
        []
        (List.map Oracle.failure_key
           (Oracle.check_temporal ~expect_fault:true p)))
    (seeds 700L 6)

let oob_src =
  "i64 main() {\n\
  \  let junk: i64 = 42;\n\
  \  let p: i64* = malloc(i64, 4);\n\
  \  p[0] = 7;\n\
  \  let x: i64 = p[5];\n\
  \  __print_i64(x);\n\
  \  if (x > 2) {\n\
  \    junk = 9;\n\
  \  }\n\
  \  return (x + junk);\n\
   }\n"

let test_battery_flags_oob () =
  match Fuzz.check_source oob_src with
  | Error m -> Alcotest.failf "oob source rejected: %s" m
  | Ok failures ->
    let keys = List.map Oracle.failure_key failures in
    Alcotest.(check bool)
      "ifp-subheap equivalence divergence detected" true
      (List.mem "equivalence/ifp-subheap" keys)

let test_failure_line_roundtrip () =
  let f =
    {
      Oracle.oracle = "engines";
      site = "ifp-subheap/closure";
      detail = "-cycles=12 +cycles=13\nwith newline and \"quotes\"";
    }
  in
  (match Oracle.of_line (Oracle.to_line f) with
  | Some g ->
    Alcotest.(check string) "oracle" f.Oracle.oracle g.Oracle.oracle;
    Alcotest.(check string) "site" f.Oracle.site g.Oracle.site;
    Alcotest.(check string) "detail" f.Oracle.detail g.Oracle.detail
  | None -> Alcotest.fail "of_line rejected its own encoding");
  Alcotest.(check (option reject)) "non-failure line ignored" None
    (Option.map ignore (Oracle.of_line "12345"))

(* ---- shrinker -------------------------------------------------------- *)

let test_shrink_preserves_failure () =
  let prog = Parser.parse oob_src in
  Typecheck.check_program prog;
  let key = "equivalence/ifp-subheap" in
  let small = Fuzz.minimize ~fault_seed:1L ~key prog in
  let text = Ir_pp.program_to_string small in
  (* still reproduces under replay *)
  (match Fuzz.check_source text with
  | Ok failures ->
    Alcotest.(check bool) "minimized still diverges" true
      (List.exists (fun f -> Oracle.failure_key f = key) failures)
  | Error m -> Alcotest.failf "minimized program invalid: %s" m);
  (* and actually shrank *)
  let lines s = List.length (String.split_on_char '\n' s) in
  Alcotest.(check bool) "got smaller" true (lines text < lines oob_src);
  (* printing the minimized program is a fixpoint (parser image) *)
  Alcotest.(check string) "minimized reprint stable" text
    (Ir_pp.program_to_string (Parser.parse text));
  (* and so is minimizing it: no single edit of it still reproduces *)
  Alcotest.(check string) "minimizing again changes nothing" text
    (Ir_pp.program_to_string (Fuzz.minimize ~fault_seed:1L ~key small))

let test_shrink_keeps_input_when_keep_fails () =
  let prog = Parser.parse oob_src in
  let out = Shrink.minimize ~keep:(fun _ -> false) prog in
  Alcotest.(check bool) "unchanged" true (Ir.equal_program prog out)

(* The measure the shrinker's edits decrease, compared lexicographically:
   the nodes (functions, globals, structs, statements and expressions),
   the expressions that are not literals, and the sum of the literals'
   magnitudes as unsigned 64-bit numbers, kept exactly in 32-bit halves *)
let measure (p : Ir.program) =
  let over fold = List.concat_map (fun (f : Ir.func) -> fold (fun acc x -> x :: acc) [] f.body) p.funcs in
  let exprs = over Ir.fold_exprs in
  let hi, lo =
    List.fold_left
      (fun (hi, lo) -> function
        | Ir.Int k ->
          let m = Int64.abs k in
          ( hi + Int64.to_int (Int64.shift_right_logical m 32),
            lo + Int64.to_int (Int64.logand m 0xffff_ffffL) )
        | _ -> (hi, lo))
      (0, 0) exprs
  in
  ( List.length p.funcs + List.length p.globals
    + List.length (Ifp_types.Ctype.bindings p.tenv)
    + List.length (over Ir.fold_stmts) + List.length exprs,
    List.length (List.filter (function Ir.Int _ -> false | _ -> true) exprs),
    hi + (lo lsr 32),
    lo land 0xffff_ffff )

(* every candidate the shrinker offers is smaller: a keep that rejects
   everything sees each candidate of the input once *)
let test_shrink_candidates_decrease () =
  let programs =
    Parser.parse oob_src
    :: List.map (fun (_, src) -> Parser.parse src) (Fuzz.corpus_entries ~dir:corpus_dir)
    @ List.map (fun seed -> Gen.generate ~knobs:Gen.quick ~seed ()) (seeds 500L 6)
    @ List.map (fun seed -> Gen.generate ~knobs:Gen.default ~seed ()) (seeds 600L 2)
  in
  List.iteri
    (fun i p ->
      let m = measure p and seen = ref 0 in
      let keep q =
        incr seen;
        if compare (measure q) m >= 0 then
          Alcotest.failf "program %d: a candidate does not decrease the measure:\n%s" i
            (Ir_pp.program_to_string q);
        false
      in
      Alcotest.(check bool) "input returned" true (Ir.equal_program p (Shrink.minimize ~keep p));
      Alcotest.(check bool) (Printf.sprintf "program %d has candidates" i) true (!seen > 0))
    programs

(* ---- campaign plumbing ----------------------------------------------- *)

let test_job_digests () =
  let j () = Fuzz.job ~knobs:Gen.quick ~campaign_seed:7L ~round:0 ~idx:3 in
  let a = j () and b = j () in
  Alcotest.(check string) "same case same digest" (Ifp_campaign.Job.digest a)
    (Ifp_campaign.Job.digest b);
  let c = Fuzz.job ~knobs:Gen.quick ~campaign_seed:7L ~round:0 ~idx:4 in
  Alcotest.(check bool) "distinct cases distinct digests" false
    (String.equal (Ifp_campaign.Job.digest a) (Ifp_campaign.Job.digest c))

let test_runner_verdict () =
  let j = Fuzz.job ~knobs:Gen.quick ~campaign_seed:7L ~round:1 ~idx:0 in
  let r = Fuzz.runner j in
  (match r.Ifp_vm.Vm.outcome with
  | Ifp_vm.Vm.Finished 0L -> ()
  | o ->
    Alcotest.failf "clean case verdict: %s"
      (match o with
      | Ifp_vm.Vm.Finished n -> Printf.sprintf "finished:%Ld" n
      | _ -> "non-finish"));
  Alcotest.(check int) "no failures decoded" 0
    (List.length (Fuzz.failures_of r))

(* ---- corpus ---------------------------------------------------------- *)

let read_expect path =
  let lines =
    In_channel.with_open_text path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  let seed =
    List.find_map
      (fun l ->
        match String.split_on_char ' ' l with
        | [ "seed"; s ] -> Int64.of_string_opt s
        | _ -> None)
      lines
    |> Option.value ~default:1L
  in
  let keys =
    List.filter_map
      (fun l ->
        match String.split_on_char ' ' l with
        | [ "failure"; k ] -> Some k
        | _ -> None)
      lines
  in
  (seed, keys)

let test_corpus_replay () =
  let entries = Fuzz.corpus_entries ~dir:corpus_dir in
  Alcotest.(check bool) "corpus not empty" true (entries <> []);
  List.iter
    (fun (digest, src) ->
      Alcotest.(check string)
        (digest ^ " content-addressed")
        digest (Fuzz.text_digest src);
      let seed, expected =
        read_expect (Filename.concat corpus_dir (digest ^ ".expect"))
      in
      Alcotest.(check bool) (digest ^ " has expectations") true (expected <> []);
      match Fuzz.check_source ~fault_seed:seed src with
      | Error m -> Alcotest.failf "%s: invalid corpus entry: %s" digest m
      | Ok failures ->
        let keys = List.map Oracle.failure_key failures in
        List.iter
          (fun k ->
            Alcotest.(check bool)
              (Printf.sprintf "%s reproduces %s" digest k)
              true (List.mem k keys))
          expected;
        (* corpus text is canonical: printing its parse is the identity *)
        Alcotest.(check string) (digest ^ " canonical") src
          (Ir_pp.program_to_string (Parser.parse src)))
    entries

let test_corpus_write_roundtrip () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "fuzz-corpus-test" in
  let src = "i64 main() {\n  return 0;\n}\n" in
  let d = Fuzz.corpus_write ~dir ~src ~seed:9L ~keys:[ "engines/x" ] in
  let entries = Fuzz.corpus_entries ~dir in
  Alcotest.(check bool) "written entry listed" true
    (List.mem_assoc d entries);
  Alcotest.(check string) "text preserved" src (List.assoc d entries);
  let seed, keys = read_expect (Filename.concat dir (d ^ ".expect")) in
  Alcotest.(check int64) "seed preserved" 9L seed;
  Alcotest.(check (list string)) "keys preserved" [ "engines/x" ] keys

let tests =
  [
    Alcotest.test_case "generator determinism" `Quick test_determinism;
    Alcotest.test_case "generated programs well-typed" `Quick test_well_typed;
    Alcotest.test_case "generated programs round-trip" `Quick test_roundtrip;
    Alcotest.test_case "oracle battery green on clean seeds" `Quick
      test_battery_green;
    Alcotest.test_case "oracle battery flags oob" `Quick test_battery_flags_oob;
    Alcotest.test_case "engines and configs agree on generated programs" `Quick
      test_configs_agree;
    Alcotest.test_case "temporal knob off is byte-identical" `Quick
      test_temporal_knob_off_identical;
    Alcotest.test_case "temporal battery green on safe seeds" `Quick
      test_temporal_battery;
    Alcotest.test_case "temporal variants trap temporally" `Quick
      test_temporal_variants_trap;
    Alcotest.test_case "failure line round-trip" `Quick
      test_failure_line_roundtrip;
    Alcotest.test_case "shrinker preserves failure" `Quick
      test_shrink_preserves_failure;
    Alcotest.test_case "shrinker no-op without failure" `Quick
      test_shrink_keeps_input_when_keep_fails;
    Alcotest.test_case "shrinker candidates strictly shrink" `Quick
      test_shrink_candidates_decrease;
    Alcotest.test_case "job digests deterministic" `Quick test_job_digests;
    Alcotest.test_case "runner verdict on clean case" `Quick
      test_runner_verdict;
    Alcotest.test_case "corpus replay" `Quick test_corpus_replay;
    Alcotest.test_case "corpus write round-trip" `Quick
      test_corpus_write_roundtrip;
  ]
