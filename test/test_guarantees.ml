(* Executable version of the paper's §3 "Protection Scope and
   Guarantees": what In-Fat Pointer promises, what it explicitly does
   not, and the MAC's role against metadata tampering — each a verdict
   row: a program, a configuration, what the harness expects of it and
   the verdict §3 promises. *)

open Core
open Ir
module Verdict = Ifp_faultinject.Verdict

let tenv =
  Ctype.declare Ctype.empty_tenv
    {
      Ctype.sname = "obj";
      fields =
        [
          { fname = "a"; fty = Ctype.I64 };
          { fname = "b"; fty = Ctype.I64 };
        ];
    }

let op = Ctype.Ptr (Ctype.Struct "obj")

(* -- temporal errors: §3 "cannot detect temporal memory errors beyond
      those that invalidate object metadata" -- *)

(* under the wrapped allocator, free deregisters the local-offset
   metadata, so a promote through a stale pointer finds invalid
   metadata and poisons *)
let use_after_free =
  program ~tenv ~globals:[ global "g" op ]
    [
      func "main" [] Ctype.I64
        [
          Let ("p", op, Malloc (Ctype.Struct "obj", i 1));
          Store_global ("g", v "p");
          Free (v "p");
          (* reload: promote must reject the dead metadata *)
          Let ("q", op, Load_global "g");
          Store (Ctype.I64, Gep (Ctype.Struct "obj", v "q", [ fld "a" ]), i 1);
          Return (Some (i 0));
        ];
    ]

(* under the subheap allocator, the freed slot's block metadata stays
   valid (it is shared by the whole block), so the stale pointer still
   promotes to plausible bounds — exactly the paper's stated limitation *)
let use_after_reuse =
  program ~tenv ~globals:[ global "g" op ]
    [
      func "main" [] Ctype.I64
        [
          Let ("p", op, Malloc (Ctype.Struct "obj", i 1));
          Store_global ("g", v "p");
          Free (v "p");
          (* slot gets reused by a new object of the same type *)
          Let ("p2", op, Malloc (Ctype.Struct "obj", i 1));
          Store (Ctype.I64, Gep (Ctype.Struct "obj", v "p2", [ fld "a" ]), i 7);
          Let ("q", op, Load_global "g");
          (* in-bounds use of the stale pointer: silently reads p2 *)
          Return (Some (Load (Ctype.I64, Gep (Ctype.Struct "obj", v "q", [ fld "a" ]))));
        ];
    ]

(* -- metadata tampering: the MAC catches corruption of in-memory object
      metadata by stray writes (e.g. from legacy code) -- *)

(* a legacy function scribbles over the local-offset metadata that
   lives just after the object; the next promote must reject it *)
let metadata_tamper =
  program ~tenv ~globals:[ global "g" (Ctype.Ptr Ctype.I64) ]
    [
      (* legacy code: untagged pointer arithmetic, unchecked writes *)
      func ~instrumented:false "scribble" [ ("p", Ctype.Ptr Ctype.I64) ] Ctype.Void
        [
          (* the wrapped allocator puts metadata right after the 16-byte
             object: offsets 2 and 3 hit it *)
          Store (Ctype.I64, Gep (Ctype.I64, v "p", [ at (i 2) ]), i 0xBAD);
          Store (Ctype.I64, Gep (Ctype.I64, v "p", [ at (i 3) ]), i 0xBAD);
          Return None;
        ];
      func "main" [] Ctype.I64
        [
          Let ("p", Ctype.Ptr Ctype.I64, Malloc (Ctype.I64, i 2));
          Store_global ("g", v "p");
          Expr (Call ("scribble", [ v "p" ]));
          (* reload and dereference: promote finds a broken MAC *)
          Let ("q", Ctype.Ptr Ctype.I64, Load_global "g");
          Store (Ctype.I64, Gep (Ctype.I64, v "q", [ at (i 0) ]), i 1);
          Return (Some (i 0));
        ];
    ]

(* -- tag-preservation assumption: §3 "does not support applications
      that modify these bits" -- *)

(* casting through i64 and masking the tag off produces a legacy
   pointer: protection is lost, but no false positive occurs *)
let tag_destruction =
  program ~tenv ~globals:[]
    [
      func "main" [] Ctype.I64
        [
          Let ("p", op, Malloc (Ctype.Struct "obj", i 1));
          Let ("raw", Ctype.I64, Binop (BAnd, Cast (Ctype.I64, v "p"), i64 0xFFFF_FFFF_FFFFL));
          Let ("q", op, Cast (op, v "raw"));
          (* out-of-bounds through the stripped pointer: silent *)
          Store (Ctype.I64, Gep (Ctype.Struct "obj", v "q", [ at (i 3); fld "a" ]), i 1);
          Return (Some (i 0));
        ];
    ]

(* -- off-by-one pointers: legal to hold, illegal to dereference -- *)

let one_past_end ~deref =
  program ~tenv ~globals:[]
    [
      func "main" [] Ctype.I64
        ([
           Let ("a", Ctype.Ptr Ctype.I64, Malloc (Ctype.I64, i 4));
           (* classic idiom: end pointer for a loop bound *)
           Let ("end_", Ctype.Ptr Ctype.I64, Gep (Ctype.I64, v "a", [ at (i 4) ]));
           Let ("it", Ctype.Ptr Ctype.I64, v "a");
           Let ("s", Ctype.I64, i 0);
           While
             ( Binop (Ne, v "it", v "end_"),
               [
                 Assign ("s", v "s" +: Load (Ctype.I64, v "it"));
                 Assign ("it", Gep (Ctype.I64, v "it", [ at (i 1) ]));
               ] );
         ]
        @ (if deref then [ Assign ("s", v "s" +: Load (Ctype.I64, v "end_")) ] else [])
        @ [ Return (Some (v "s")) ]);
    ]

(* Runs [program] under the configuration named [config] and checks
   that its verdict is [promised] ({!Verdict.to_string}, the trap judged
   by [trap]); [also] checks the run further. *)
let row ?(trap = fun _ -> true) ?(also = ignore) config expect promised program () =
  let r = Vm.run ~config:(List.assoc config Report.configs) program in
  let verdict = Verdict.classify ~expect:trap (Vm.observe r) in
  Alcotest.(check string) (config ^ " verdict") promised (Verdict.to_string verdict);
  also r;
  { Verdict.program; config; expect; verdict }

let reads_new_object r =
  Alcotest.(check string) "stale pointer silently observes the new object" "finished:7"
    (Vm.outcome_string r.Vm.outcome)

let poisoned = function Trap.Poisoned_dereference _ -> true | _ -> false

let guarantees =
  [
    ("UAF caught when metadata invalidated", [ row "wrapped" Detect "detected" use_after_free ]);
    ( "UAF missed on slot reuse (documented)",
      [ row "subheap" Detect "silent" use_after_reuse ~also:reads_new_object ] );
    ("metadata tamper caught by MAC", [ row "wrapped" Detect "detected" metadata_tamper ~trap:poisoned ]);
    ("tag destruction: silent, unprotected", [ row "subheap" Detect "silent" tag_destruction ]);
    ( "one-past-end pointer idiom",
      [ row "subheap" Pass "silent" (one_past_end ~deref:false);
        row "subheap" Detect "detected" (one_past_end ~deref:true) ] );
  ]

let run_rows rows = List.map (fun row -> row ()) rows

(* the scope in one tally: three detections, the two documented misses,
   no false alarm on the legal idiom *)
let test_scope_tally () =
  let t = Verdict.tally (List.concat_map (fun (_, rows) -> run_rows rows) guarantees) in
  Alcotest.(check (list int)) "total, detected, missed, pass failures" [ 5; 3; 2; 0 ]
    [ t.total; t.detected; t.missed; t.pass_failures ]

let tests =
  List.map
    (fun (name, rows) -> Alcotest.test_case name `Quick (fun () -> ignore (run_rows rows)))
    guarantees
  @ [ Alcotest.test_case "§3 scope tally" `Quick test_scope_tally ]
