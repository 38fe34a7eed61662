(* The three tools' command lines: `--help` exits 0 and names every flag,
   a bad flag or a malformed value exits 1 with a usage line on stderr,
   ifp_fuzz's one-shot modes read every flag whatever the order, a
   repro target that names nothing is bad input (exit 1), and the repro
   table prints bare cells. *)

(* the tools are built beside the test runner's directory (see test/dune);
   resolve them relative to the running executable so the tests work
   from any cwd *)
let exe name =
  Filename.concat
    (Filename.concat (Filename.dirname Sys.executable_name) "../bin")
    (name ^ ".exe")

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* runs a tool to completion: exit code, stdout, stderr *)
let run tool args =
  let out = Filename.temp_file "cli" ".out" and err = Filename.temp_file "cli" ".err" in
  let fd path = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0 in
  let ofd = fd out and efd = fd err in
  let pid =
    Unix.create_process (exe tool) (Array.of_list (exe tool :: args)) Unix.stdin ofd efd
  in
  Unix.close ofd;
  Unix.close efd;
  let code =
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED n -> n
    | _, (Unix.WSIGNALED n | Unix.WSTOPPED n) -> 128 + n
  in
  let o = read_file out and e = read_file err in
  Sys.remove out;
  Sys.remove err;
  (code, o, e)

let flags =
  let campaign = [ "-j"; "--jobs"; "--cache-dir"; "--no-cache"; "--log"; "--no-log" ] in
  [
    ( "ifp_run",
      [ "-c"; "--variant"; "--engine"; "-v"; "--verbose"; "--dump-ir";
        "--dump-instrumented"; "--trace" ] );
    ("ifp_experiments", campaign @ [ "--bench-out"; "--seeds"; "--chaos-kill-after" ]);
    ( "ifp_fuzz",
      campaign
      @ [ "--seed"; "--rounds"; "--cases"; "--dry"; "--quick"; "--corpus"; "--out";
          "--repro"; "--shrink"; "--canon"; "--emit-seed"; "--fault-seed" ] );
  ]

let test_help () =
  List.iter
    (fun (tool, flags) ->
      let code, out, _ = run tool [ "--help" ] in
      Alcotest.(check int) (tool ^ " --help exit") 0 code;
      List.iter
        (fun flag ->
          let listed = Str.regexp ("^  " ^ Str.quote flag ^ "\\b") in
          Alcotest.(check bool)
            (tool ^ " --help names " ^ flag)
            true
            (match Str.search_forward listed out 0 with
            | _ -> true
            | exception Not_found -> false))
        ("-h" :: "--help" :: flags))
    flags

let usage_line err =
  List.exists (String.starts_with ~prefix:"usage: ") (String.split_on_char '\n' err)

let test_bad_input () =
  List.iter
    (fun (tool, args) ->
      let what = String.concat " " (tool :: args) in
      let code, out, err = run tool args in
      Alcotest.(check int) (what ^ ": exit") 1 code;
      Alcotest.(check bool) (what ^ ": usage on stderr") true (usage_line err);
      Alcotest.(check string) (what ^ ": nothing on stdout") "" out)
    [
      ("ifp_run", [ "--bogus" ]);
      ("ifp_run", [ "--engine"; "jit" ]);
      ("ifp_run", [ "-c"; "nope" ]);
      ("ifp_experiments", [ "--bogus" ]);
      ("ifp_experiments", [ "-j"; "x" ]);
      ("ifp_experiments", [ "--seeds" ]);
      ("ifp_experiments", [ "nope" ]);
      ("ifp_fuzz", [ "--bogus" ]);
      ("ifp_fuzz", [ "-j"; "x" ]);
      ("ifp_fuzz", [ "--seed"; "x" ]);
    ]

(* a one-shot mode sees every flag, whichever side of it they are *)
let test_flag_order () =
  let src = Filename.temp_file "oob" ".minic" in
  Out_channel.with_open_bin src (fun oc ->
      output_string oc "i64 main() {\n  let p: i64* = malloc(i64, 2);\n  return p[3];\n}\n");
  List.iter
    (fun (what, a, b) ->
      let ca, oa, _ = run "ifp_fuzz" a and cb, ob, _ = run "ifp_fuzz" b in
      Alcotest.(check (pair int int)) (what ^ ": exits") (0, 0) (ca, cb);
      Alcotest.(check bool) (what ^ ": prints a program") true (String.length oa > 0);
      Alcotest.(check string) what oa ob)
    [
      ( "--shrink F --fault-seed 3",
        [ "--shrink"; src; "--fault-seed"; "3" ],
        [ "--fault-seed"; "3"; "--shrink"; src ] );
      ( "--emit-seed 5 --quick",
        [ "--emit-seed"; "5"; "--quick" ],
        [ "--quick"; "--emit-seed"; "5" ] );
    ];
  Sys.remove src

let test_repro_no_match () =
  List.iter
    (fun target ->
      let code, out, err = run "ifp_fuzz" [ "--repro"; target; "--corpus"; "golden/fuzz" ] in
      Alcotest.(check int) (Printf.sprintf "--repro %S: exit" target) 1 code;
      Alcotest.(check string) "nothing on stdout" "" out;
      Alcotest.(check bool) "says why" true (String.starts_with ~prefix:"repro: " err))
    [ "0000"; (* every digest matches the empty prefix *) "" ]

(* the repro table's cycles and output cells are bare values under
   their column headers *)
let test_repro_cells () =
  let src = Filename.temp_file "repro" ".minic" in
  Out_channel.with_open_text src (fun oc ->
      output_string oc "i64 main() {\n  __print_i64(7);\n  __print_i64(42);\n  return 3;\n}\n");
  let code, out, _ = run "ifp_fuzz" [ "--repro"; src ] in
  Sys.remove src;
  Alcotest.(check int) "a clean program: exit" 0 code;
  let lines = String.split_on_char '\n' out in
  Alcotest.(check (list string)) "header and first row"
    [ "| config      |  engine |    outcome | cycles | output |";
      "|-------------|---------|------------|--------|--------|";
      "| baseline    |      vm | finished:3 |      6 |   7|42 |" ]
    (List.filteri (fun i _ -> i >= 1 && i <= 3) lines)

let tests =
  [
    Alcotest.test_case "--help names every flag" `Quick test_help;
    Alcotest.test_case "bad flags and values exit 1" `Quick test_bad_input;
    Alcotest.test_case "one-shot modes ignore flag order" `Quick test_flag_order;
    Alcotest.test_case "repro of no target exits 1" `Quick test_repro_no_match;
    Alcotest.test_case "repro table cells" `Quick test_repro_cells;
  ]
