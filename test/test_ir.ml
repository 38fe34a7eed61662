(* The MiniC front end over every program the repo builds: the 18
   workloads, the two fault victims, every Juliet program and generated
   programs. Instrumentation is deterministic; the instrumented and
   resolved programs and the shrinker's output are pinned by MD5, so a
   change to a pass that walks the IR shows here before it moves a
   result; Ir's shared traversal is checked against a reference walk
   written per constructor; and every program prints as MiniC that
   parses back to itself. *)

open Core
module W = Ifp_workloads
module J = Ifp_juliet.Juliet
module Gen = Ifp_fuzz.Gen
module Shrink = Ifp_fuzz.Shrink

let gen_programs =
  lazy
    (List.concat_map
       (fun (knobs_name, knobs) ->
         List.init 100 (fun i ->
             let seed = Int64.of_int (i + 1) in
             (Printf.sprintf "gen/%s/%Ld" knobs_name seed, Gen.generate ~knobs ~seed ())))
       [ ("quick", Gen.quick); ("default", Gen.default) ])

(* (name, program) for every program the repo builds, in a fixed order *)
let corpus =
  lazy
    (List.map (fun (w : W.Workload.t) -> (w.name, Lazy.force w.prog)) W.Registry.all
    @ [
        (W.Victim.name, W.Victim.program ());
        (W.Victim.temporal_name, W.Victim.temporal_program ());
      ]
    @ List.concat_map
        (fun (c : J.case) -> [ (c.id ^ "/good", c.good); (c.id ^ "/bad", c.bad) ])
        (J.all_cases () @ J.temporal_cases ())
    @ Lazy.force gen_programs)

let configs =
  [
    ("plain", Instrument.default_config);
    ("infer", { Instrument.infer_alloc_types = true });
  ]

(* Instrumenting a program twice gives the same program: the pass keeps
   no state between runs *)
let test_instrument_deterministic () =
  List.iter
    (fun (name, p) ->
      List.iter
        (fun (cname, config) ->
          let a, _ = Instrument.run ~config p and b, _ = Instrument.run ~config p in
          if not (Ir.equal_program a b) then
            Alcotest.failf "%s (%s): two instrumentations differ" name cname)
        configs)
    (Lazy.force corpus)

(* ---- a reference walk ------------------------------------------------- *)

(* Every expression node of a program in pre-order: functions and
   statements in order, a statement's own expressions before its nested
   blocks, a node before its children, children left to right. Written
   out per constructor with no catch-all, so a new constructor does not
   compile until it is walked here too. *)
let rec ref_expr acc (e : Ir.expr) =
  let acc = e :: acc in
  match e with
  | Int _ | Float _ | Var _ | Addr_local _ | Addr_global _ | Load_global _ -> acc
  | Binop (_, a, b) -> ref_expr (ref_expr acc a) b
  | Unop (_, a)
  | Load (_, a)
  | Malloc (_, a)
  | Malloc_bytes a
  | Malloc_sized (_, a)
  | Cast (_, a)
  | Ifp_promote a ->
    ref_expr acc a
  | Gep (_, base, steps) ->
    List.fold_left
      (fun acc (step : Ir.gstep) ->
        match step with S_field _ -> acc | S_index ie -> ref_expr acc ie)
      (ref_expr acc base) steps
  | Call (_, args) -> List.fold_left ref_expr acc args

and ref_stmt acc (s : Ir.stmt) =
  match s with
  | Let (_, _, e) | Assign (_, e) | Store_global (_, e) | Return (Some e) | Expr e
  | Free e ->
    ref_expr acc e
  | Store (_, a, e) -> ref_expr (ref_expr acc a) e
  | If (c, t, e) -> ref_block (ref_block (ref_expr acc c) t) e
  | While (c, b) -> ref_block (ref_expr acc c) b
  | Decl_local _ | Return None | Break | Continue | Ifp_register_local _
  | Ifp_deregister_local _ ->
    acc

and ref_block acc ss = List.fold_left ref_stmt acc ss


(* every statement, a statement before those of its nested blocks *)
let rec ref_stmts acc (ss : Ir.stmt list) =
  List.fold_left
    (fun acc (s : Ir.stmt) ->
      let acc = s :: acc in
      match s with
      | If (_, t, e) -> ref_stmts (ref_stmts acc t) e
      | While (_, b) -> ref_stmts acc b
      | Let _ | Assign _ | Decl_local _ | Store _ | Store_global _ | Return _ | Expr _
      | Free _ | Break | Continue | Ifp_register_local _ | Ifp_deregister_local _ ->
        acc)
    acc ss

(* what a block walk visits over every function of a program, in order *)
let over_funcs walk (p : Ir.program) =
  List.rev (List.fold_left (fun acc (f : Ir.func) -> walk acc f.body) [] p.funcs)

let ref_exprs = over_funcs ref_block

(* ---- pins ------------------------------------------------------------ *)

let md5 parts = Digest.to_hex (Digest.string (String.concat "\x00" parts))

let each f = List.concat_map (fun (name, p) -> [ name; f p ]) (Lazy.force corpus)

let instrumented config p = fst (Instrument.run ~config p)

let test_instrumented_pinned () =
  List.iter2
    (fun (cname, config) pin ->
      Alcotest.(check string) ("MD5 of the instrumented programs, " ^ cname) pin
        (md5 (each (fun p -> Ir_pp.program_to_string (instrumented config p)))))
    configs
    [ "497c3bb4b0d4dedd7faa18a884cf3c03"; "2c24168ec2b756d67f7a603d4ca22f47" ]

let marshal_resolved p = Marshal.to_string (Resolve.run p) [ Marshal.No_sharing ]

let test_resolved_pinned () =
  Alcotest.(check string) "MD5 of the resolved programs, uninstrumented"
    "348ba358b480b34d25604c7d10ba32db"
    (md5 (each marshal_resolved));
  List.iter2
    (fun (cname, config) pin ->
      Alcotest.(check string) ("MD5 of the resolved programs, " ^ cname) pin
        (md5 (each (fun p -> marshal_resolved (instrumented config p)))))
    configs
    [ "b7dc1caa4b0b9f49bd7119982fb62f86"; "b9d8967cb54bb361ff4f66381511a3af" ]

(* Two keep predicates that run nothing. The first lets the shrinker
   delete statements; the second keeps every statement, so only
   expression edits are kept *)
let typechecks p =
  match Typecheck.check_program p with () -> true | exception _ -> false

let keeps_malloc p =
  List.exists (function Ir.Malloc _ -> true | _ -> false) (ref_exprs p)
  && typechecks p

let n_stmts p = List.length (over_funcs ref_stmts p)

let keeps_statements p0 =
  let n = n_stmts p0 in
  fun p -> n_stmts p = n && typechecks p

(* Every Gen program shrunk to its fixpoint under "malloc"; the quick
   ones only under "statements", whose candidates stay full-sized, so
   that its sweep costs tier-1 about a second rather than four *)
let shrunk =
  lazy
    (let gen = Lazy.force gen_programs in
     List.map
       (fun (kname, keep, programs) ->
         ( kname,
           keep,
           List.map (fun (name, p) -> (name, p, Shrink.minimize ~keep:(keep p) p)) programs ))
       [
         ("malloc", Fun.const keeps_malloc, gen);
         ( "statements",
           keeps_statements,
           List.filter (fun (name, _) -> String.starts_with ~prefix:"gen/quick/" name) gen );
       ])

let test_shrink_pinned () =
  List.iter2
    (fun (kname, _, results) pin ->
      let out =
        List.concat_map
          (fun (name, _, small) -> [ name; Ir_pp.program_to_string small ])
          results
      in
      Alcotest.(check string) ("MD5 of the shrunk programs, " ^ kname) pin (md5 out))
    (Lazy.force shrunk)
    [ "08253e39c16a81cf0e94ac2c6288c65f"; "2f58654d7e07dd88b8c49b415984f1de" ]

(* a shrunk program is a fixpoint: the predicate rejects every
   candidate of it, so shrinking it again returns it unchanged *)
let test_shrink_idempotent () =
  List.iter
    (fun (kname, keep, results) ->
      List.iter
        (fun (name, p, small) ->
          if not (Ir.equal_program small (Shrink.minimize ~keep:(keep p) small)) then
            Alcotest.failf "%s (%s): shrinking the shrunk program changed it" name kname)
        results)
    (Lazy.force shrunk)

(* ---- the shared traversal ------------------------------------------- *)

(* the corpus and its instrumented images, which add the Ifp_* nodes and
   Malloc_sized *)
let walked =
  lazy
    (List.concat_map
       (fun (name, p) ->
         [
           (name, p);
           (name ^ "/instrumented", instrumented (List.assoc "infer" configs) p);
         ])
       (Lazy.force corpus))

let same_nodes name what reference visited =
  if
    not
      (List.length reference = List.length visited
      && List.for_all2 ( == ) reference visited)
  then
    Alcotest.failf "%s: %d %s in the reference walk, %d visited, or another order" name
      (List.length reference) what (List.length visited)

(* Ir's folds visit what the reference walk visits, node for node and in
   the same order *)
let test_folds_complete () =
  List.iter
    (fun (name, p) ->
      same_nodes name "expressions" (ref_exprs p)
        (over_funcs (Ir.fold_exprs (fun acc e -> e :: acc)) p);
      same_nodes name "statements"
        (over_funcs ref_stmts p)
        (over_funcs (Ir.fold_stmts (fun acc s -> s :: acc)) p))
    (Lazy.force walked)

(* Ir's maps rebuild the program they walk, and call their functions in
   the folds' order: a map that numbers the nodes it visits numbers them
   as the folds do *)
let test_maps_in_fold_order () =
  List.iter
    (fun (name, (p : Ir.program)) ->
      let exprs = ref [] and stmts = ref [] in
      let rec expr e =
        exprs := e :: !exprs;
        Ir.map_children expr e
      in
      let rec block ss =
        List.map
          (fun s ->
            stmts := s :: !stmts;
            Ir.map_stmt expr block s)
          ss
      in
      let q =
        {
          p with
          funcs = List.map (fun (f : Ir.func) -> { f with body = block f.body }) p.funcs;
        }
      in
      if not (Ir.equal_program p q) then
        Alcotest.failf "%s: the identity map changed the program" name;
      same_nodes name "expressions" (ref_exprs p) (List.rev !exprs);
      same_nodes name "statements" (over_funcs ref_stmts p) (List.rev !stmts))
    (Lazy.force walked)

(* ---- printing round-trips ------------------------------------------- *)

(* every program the repo builds has a MiniC spelling: printed, it
   parses and checks to the same program *)
let test_printed_programs_reparse () =
  let failed =
    List.filter
      (fun (name, p) ->
        match Frontend.check ~file:name (Ir_pp.program_to_string p) with
        | Ok q -> not (Ir.equal_program p q)
        | Error _ -> true)
      (Lazy.force corpus)
  in
  Alcotest.(check (list string))
    "programs whose printed text is another program or none" []
    (List.map fst failed)

let tests =
  [
    Alcotest.test_case "instrumentation is deterministic" `Quick
      test_instrument_deterministic;
    Alcotest.test_case "instrumented programs pinned" `Quick test_instrumented_pinned;
    Alcotest.test_case "resolved programs pinned" `Quick test_resolved_pinned;
    Alcotest.test_case "shrunk programs pinned" `Quick test_shrink_pinned;
    Alcotest.test_case "shrunk programs are fixpoints" `Quick test_shrink_idempotent;
    Alcotest.test_case "Ir's folds are complete" `Quick test_folds_complete;
    Alcotest.test_case "Ir's maps run in fold order" `Quick test_maps_in_fold_order;
    Alcotest.test_case "printed programs re-parse" `Quick test_printed_programs_reparse;
  ]
