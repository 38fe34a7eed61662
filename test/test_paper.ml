(* The paper's qualitative claims, asserted on the committed
   experiments_output.txt (which the runtest byte gate keeps equal to a
   fresh `ifp_experiments all`): a change that flips one of these shapes
   fails here by name, not only as a diff in a table. That run is the
   only simulation of the paper matrix in the test suite; the per-row
   checks below read its cells instead of re-running the workloads. *)

module Registry = Ifp_workloads.Registry

let output =
  lazy
    (In_channel.with_open_text "../experiments_output.txt" In_channel.input_all)

(* the lines of the section whose "== ..." header starts with [title],
   up to the next header *)
let section title =
  let rec drop = function
    | [] -> Alcotest.failf "section %S missing" title
    | l :: rest ->
      if String.starts_with ~prefix:title l then take rest else drop rest
  and take = function
    | [] -> []
    | l :: rest ->
      if String.starts_with ~prefix:"== " l then [] else l :: take rest
  in
  drop (String.split_on_char '\n' (Lazy.force output))

(* groups 1..n of the first line of [lines] that matches [pattern] *)
let matching lines n pattern =
  let re = Str.regexp pattern in
  match List.find_opt (fun l -> Str.string_match re l 0) lines with
  | Some l ->
    ignore (Str.string_match re l 0);
    List.init n (fun i -> Str.matched_group (i + 1) l)
  | None -> Alcotest.failf "no line matching %S" pattern

(* the rows of the section's table, each as (column header, cell) *)
let table title =
  let cells l =
    match List.map String.trim (String.split_on_char '|' l) with
    | "" :: rest -> List.filteri (fun i _ -> i < List.length rest - 1) rest
    | _ -> []
  in
  match List.filter (String.starts_with ~prefix:"| ") (section title) with
  | header :: rows -> List.map (fun r -> List.combine (cells header) (cells r)) rows
  | [] -> Alcotest.failf "section %S has no table" title

let cell row column = List.assoc column row
let name row = cell row "benchmark"

(* the leading number of a cell: "+36.4%", "1.49x", "5.86e+05",
   "192 (100%)" *)
let num row column = Scanf.sscanf (cell row column) " %f" Fun.id

let row_of rows wl =
  match List.find_opt (fun r -> name r = wl) rows with
  | Some r -> r
  | None -> Alcotest.failf "no row for %s" wl

(* the rows of a table must be exactly the registered workloads *)
let check_rows what rows =
  Alcotest.(check (list string))
    (what ^ ": one row per workload") Registry.names (List.map name rows)

(* groups 1 and 2 of the first line of [lines] that matches [pattern],
   as numbers *)
let two lines pattern =
  match List.map float_of_string (matching lines 2 pattern) with
  | [ a; b ] -> (a, b)
  | _ -> assert false

(* [claim fmt args cond]: a named boolean check *)
let claim fmt = Printf.ksprintf (fun msg cond -> Alcotest.(check bool) msg true cond) fmt

let pct = {|\([-+][0-9.]+\)%|}

let geo_mean lines what =
  two lines
    (Printf.sprintf "geo-mean %s overhead: subheap %s, wrapped %s" what pct pct)

let test_fig10 () =
  let subheap, wrapped = geo_mean (section "== Figure 10") "runtime" in
  claim "geo-mean subheap %+.1f%% < wrapped %+.1f%%" subheap wrapped
    (subheap < wrapped);
  let rows = table "== Figure 10" in
  check_rows "Fig. 10" rows;
  List.iter
    (fun wl ->
      let v = num (row_of rows wl) "subheap" in
      claim "%s runs faster under subheap (%+.1f%%)" wl v (v < 0.0))
    [ "perimeter"; "treeadd" ]

let test_table4 () =
  let rows = table "== Table 4" in
  check_rows "Table 4" rows;
  List.iter
    (fun r ->
      let subheap = num r "subheap" and wrapped = num r "wrapped" in
      claim "%s: subheap %.2fx <= wrapped %.2fx" (name r) subheap wrapped
        (subheap <= wrapped))
    rows;
  let subheap, wrapped =
    two (section "== Table 4")
      (Printf.sprintf
         "geo-mean dynamic instruction increase: subheap %s, wrapped %s" pct pct)
  in
  claim "geo-mean subheap %+.1f%% < wrapped %+.1f%%" subheap wrapped
    (subheap < wrapped)

let test_fig12 () =
  let subheap, wrapped = geo_mean (section "== Figure 12") "memory" in
  claim "geo-mean subheap %+.1f%% < 0 < wrapped %+.1f%%" subheap wrapped
    (subheap < 0.0 && 0.0 < wrapped)

let test_juliet () =
  let juliet = section "== Functional evaluation" in
  let detected cfg =
    match
      List.map int_of_string
        (matching juliet 3
           (Printf.sprintf
              {| +%s +\([0-9]+\)/\([0-9]+\) bad cases detected, \([0-9]+\) good-case failures|}
              cfg))
    with
    | [ detected; total; good_failures ] -> (detected, total, good_failures)
    | _ -> assert false
  in
  List.iter
    (fun cfg ->
      Alcotest.(check (triple int int int)) (cfg ^ " detects every bad case")
        (72, 72, 0) (detected cfg))
    [ "wrapped"; "subheap" ];
  Alcotest.(check (triple int int int)) "baseline detects none" (0, 72, 0)
    (detected "baseline")

let test_walker_ablation () =
  let full, ablated =
    two
      (section "== Extensions & ablations")
      {| +full narrowing: \([0-9]+\)/72 detected; walker disabled: \([0-9]+\)/72|}
  in
  claim "walker disabled (%.0f) < full narrowing (%.0f)" ablated full
    (ablated < full)

let test_extensions () =
  let ext = section "== Extensions & ablations" in
  (* the mixed policy: array-heavy em3d avoids subheap fragmentation,
     node-heavy treeadd keeps the subheap's speed *)
  let subheap, mixed =
    two ext {| +em3d +footprint: subheap \([0-9]+\) / mixed \([0-9]+\)|}
  in
  claim "em3d: mixed footprint %.0f < subheap %.0f" mixed subheap
    (mixed < subheap);
  let mixed, wrapped =
    two ext {| +treeadd .*; cycles: [0-9]+ / \([0-9]+\) / \([0-9]+\)|}
  in
  claim "treeadd: mixed cycles %.0f < wrapped %.0f" mixed wrapped
    (mixed < wrapped);
  let off, on =
    two ext
      {| +wolfcrypt-dh +layout tables: \([0-9]+\)/[0-9]+ objects -> \([0-9]+\)/|}
  in
  claim "wolfcrypt-dh: layouts %.0f without inference -> %.0f with" off on
    (off = 0.0 && on > 0.0)

let tests =
  [
    Alcotest.test_case "Table 4: subheap executes no more" `Quick test_table4;
    Alcotest.test_case "Fig. 10: subheap beats wrapped" `Quick test_fig10;
    Alcotest.test_case "Fig. 12: subheap saves, wrapped costs" `Quick
      test_fig12;
    Alcotest.test_case "Juliet: IFP 72/72, baseline 0/72" `Quick test_juliet;
    Alcotest.test_case "walker ablation detects fewer" `Quick
      test_walker_ablation;
    Alcotest.test_case "extensions: mixed allocator and inference" `Quick
      test_extensions;
  ]

(* Per-workload properties of the paper matrix, read off the same rows.
   Only the three subheap counters no table prints cost a run each. *)

let table4 = lazy (table "== Table 4")
let fig10 = lazy (table "== Figure 10")
let fig12 = lazy (table "== Figure 12")

(* the status column is [Report.status_string], which flags a variant
   that trapped, aborted, or returned a value other than baseline's *)
let test_checksums wl () =
  List.iter
    (fun (what, rows) ->
      Alcotest.(check string)
        (Printf.sprintf "%s: %s every variant finishes with baseline's value"
           what wl)
        "ok"
        (cell (row_of (Lazy.force rows) wl) "status"))
    [ ("Table 4", table4); ("Fig. 10", fig10) ]

let test_does_work wl () =
  let r = row_of (Lazy.force table4) wl in
  let instrs = num r "baseline instrs" *. num r "subheap" in
  claim "%s: subheap executes %.3g instructions" wl instrs (instrs > 1000.0);
  claim "%s: allocates or registers objects" wl
    (num r "glob(LT%)" +. num r "local(LT%)" +. num r "heap(LT%)" > 0.0)

let subheap_counters wl =
  let wl = Option.get (Registry.find wl) in
  (Ifp_vm.Vm.(run ~config:ifp_subheap) (Lazy.force wl.prog)).Ifp_vm.Vm.counters

let test_treeadd_profile () =
  (* half of treeadd's promotes see NULL children (paper Table 4: 50%) *)
  let c = subheap_counters "treeadd" in
  let null_share =
    float_of_int c.promotes_null
    /. float_of_int (Ifp_vm.Counters.promotes_total c)
  in
  claim "treeadd: NULL share %.2f of promotes about half" null_share
    (null_share > 0.4 && null_share < 0.6);
  Alcotest.(check (float 0.0)) "treeadd: heap objects = tree nodes" 32767.0
    (num (row_of (Lazy.force table4) "treeadd") "heap(LT%)")

let test_coremark_narrowing_fails () =
  (* CoreMark allocates through a type-erased arena: subobject narrowing
     must fail back to object bounds (paper §5.2.1) *)
  Alcotest.(check int) "coremark: no successful narrowing" 0
    (subheap_counters "coremark").narrows_ok

let test_sjeng_global_table () =
  let sjeng = row_of (Lazy.force table4) "sjeng" in
  claim "sjeng: global object registered" (num sjeng "glob(LT%)" >= 1.0);
  claim "sjeng: local move arrays registered" (num sjeng "local(LT%)" > 100.0)

let test_anagram_legacy_promotes () =
  claim "anagram: legacy-pointer promotes occur"
    ((subheap_counters "anagram").promotes_legacy > 0)

(* the paper's headline: allocation-heavy tree benchmarks run faster
   under the subheap allocator than under the wrapped one *)
let test_subheap_wins_on_alloc_heavy () =
  List.iter
    (fun wl ->
      let r = row_of (Lazy.force fig10) wl in
      let v = num r "subheap" and w = num r "wrapped" in
      claim "%s: subheap %+.1f%% < wrapped %+.1f%%" wl v w (v < w))
    [ "treeadd"; "perimeter" ]

let test_subheap_memory_win () =
  List.iter
    (fun wl ->
      let r = row_of (Lazy.force fig12) wl in
      let subheap = num r "subheap" and wrapped = num r "wrapped" in
      claim "%s: subheap %+.1f%% < 0 < wrapped %+.1f%%" wl subheap wrapped
        (subheap < 0.0 && 0.0 < wrapped))
    [ "treeadd"; "bisort"; "ft" ]

(* disabling metadata access is never slower: strict at the printed 0.1%
   precision, which implies the cycle counts' <= *)
let test_no_promote_cheaper () =
  List.iter
    (fun r ->
      List.iter
        (fun alloc ->
          let full = num r alloc and np = num r (alloc ^ "-np") in
          claim "%s: %s-np %+.1f%% < %s %+.1f%%" (name r) alloc np alloc full
            (np < full))
        [ "subheap"; "wrapped" ])
    (Lazy.force fig10)

let workload_tests =
  List.concat_map
    (fun wl ->
      [
        Alcotest.test_case (wl ^ " checksums equal") `Quick (test_checksums wl);
        Alcotest.test_case (wl ^ " does work") `Quick (test_does_work wl);
      ])
    Registry.names
  @ [
      Alcotest.test_case "treeadd profile" `Slow test_treeadd_profile;
      Alcotest.test_case "coremark narrowing fails" `Slow
        test_coremark_narrowing_fails;
      Alcotest.test_case "sjeng global table" `Quick test_sjeng_global_table;
      Alcotest.test_case "anagram legacy promotes" `Slow
        test_anagram_legacy_promotes;
      Alcotest.test_case "subheap wins on alloc-heavy" `Quick
        test_subheap_wins_on_alloc_heavy;
      Alcotest.test_case "subheap memory win" `Quick test_subheap_memory_win;
      Alcotest.test_case "no-promote cheaper" `Quick test_no_promote_cheaper;
    ]
