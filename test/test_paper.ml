(* The paper's qualitative claims, asserted on the committed
   experiments_output.txt (which the runtest byte gate keeps equal to a
   fresh `ifp_experiments all`): a change that flips one of these shapes
   fails here by name, not only as a diff in a table. *)

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

let pct = {|\([-+][0-9.]+\)%|}

let geo_mean lines what =
  match
    matching lines 2
      (Printf.sprintf "geo-mean %s overhead: subheap %s, wrapped %s" what pct
         pct)
  with
  | [ subheap; wrapped ] -> (float_of_string subheap, float_of_string wrapped)
  | _ -> assert false

let test_fig10 () =
  let fig10 = section "== Figure 10" in
  let subheap, wrapped = geo_mean fig10 "runtime" in
  Alcotest.(check bool)
    (Printf.sprintf "geo-mean subheap %+.1f%% < wrapped %+.1f%%" subheap
       wrapped)
    true (subheap < wrapped);
  List.iter
    (fun wl ->
      let v =
        float_of_string
          (List.hd (matching fig10 1 (Printf.sprintf {|| %s +| +%s|} wl pct)))
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s runs faster under subheap (%+.1f%%)" wl v)
        true (v < 0.0))
    [ "perimeter"; "treeadd" ]

let test_table4 () =
  let table4 = section "== Table 4" in
  (* a row's last three cells: subheap and wrapped dynamic instructions
     relative to baseline, then status *)
  let row =
    Str.regexp
      {|| \([a-z0-9-]+\) +|.*| +\([0-9.]+\)x | +\([0-9.]+\)x | +ok |$|}
  in
  let rows =
    List.filter_map
      (fun l ->
        if Str.string_match row l 0 then
          Some
            ( Str.matched_group 1 l,
              float_of_string (Str.matched_group 2 l),
              float_of_string (Str.matched_group 3 l) )
        else None)
      table4
  in
  Alcotest.(check int) "18 workloads" 18 (List.length rows);
  List.iter
    (fun (wl, subheap, wrapped) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: subheap %.2fx <= wrapped %.2fx" wl subheap wrapped)
        true (subheap <= wrapped))
    rows;
  match
    List.map float_of_string
      (matching table4 2
         (Printf.sprintf
            "geo-mean dynamic instruction increase: subheap %s, wrapped %s" pct
            pct))
  with
  | [ subheap; wrapped ] ->
    Alcotest.(check bool)
      (Printf.sprintf "geo-mean subheap %+.1f%% < wrapped %+.1f%%" subheap
         wrapped)
      true (subheap < wrapped)
  | _ -> assert false

let test_fig12 () =
  let subheap, wrapped = geo_mean (section "== Figure 12") "memory" in
  Alcotest.(check bool)
    (Printf.sprintf "geo-mean subheap %+.1f%% < 0 < wrapped %+.1f%%" subheap
       wrapped)
    true
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
    match
      List.map int_of_string
        (matching
           (section "== Extensions & ablations")
           2
           {| +full narrowing: \([0-9]+\)/72 detected; walker disabled: \([0-9]+\)/72|})
    with
    | [ full; ablated ] -> (full, ablated)
    | _ -> assert false
  in
  Alcotest.(check bool)
    (Printf.sprintf "walker disabled (%d) < full narrowing (%d)" ablated full)
    true (ablated < full)

let tests =
  [
    Alcotest.test_case "Table 4: subheap executes no more" `Quick test_table4;
    Alcotest.test_case "Fig. 10: subheap beats wrapped" `Quick test_fig10;
    Alcotest.test_case "Fig. 12: subheap saves, wrapped costs" `Quick
      test_fig12;
    Alcotest.test_case "Juliet: IFP 72/72, baseline 0/72" `Quick test_juliet;
    Alcotest.test_case "walker ablation detects fewer" `Quick
      test_walker_ablation;
  ]
