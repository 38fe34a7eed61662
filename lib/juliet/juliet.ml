open Ifp_compiler.Ir
module Ctype = Ifp_types.Ctype
module Vm = Ifp_vm.Vm

type kind =
  | Overflow
  | Underwrite
  | Overread
  | Underread
  | Intra_object
  | Nested_intra
      (* intra-object overflow inside an array-of-struct element: only
         the recursive layout-table walk (Fig. 9c, with the element-base
         snapping division) can compute the right subobject bounds *)
  | Use_after_free
  | Write_to_freed
  | Double_free
      (* temporal kinds (CWE-416/415): the buffer pointer round-trips
         through memory, the object is freed, the heap is churned so a
         spatial-only design sees a valid-looking recycled allocation,
         and the stale pointer is then read / written / re-freed. Only
         in {!temporal_cases}, never in {!all_cases}. *)

type place = Stack | Heap

type flow =
  | Direct
  | Loop
  | Ptr_arith
  | Via_call
  | Via_global
  | Via_field
      (* the buffer pointer round-trips through a heap struct field:
         demoted on the store, promoted again on the reload *)

type case = {
  id : string;
  kind : kind;
  place : place;
  flow : flow;
  good : program;
  bad : program;
}

let kind_to_string = function
  | Overflow -> "overflow"
  | Underwrite -> "underwrite"
  | Overread -> "overread"
  | Underread -> "underread"
  | Intra_object -> "intra-object"
  | Nested_intra -> "nested-intra"
  | Use_after_free -> "use-after-free"
  | Write_to_freed -> "write-to-freed"
  | Double_free -> "double-free"

let place_to_string = function Stack -> "stack" | Heap -> "heap"

let flow_to_string = function
  | Direct -> "direct"
  | Loop -> "loop"
  | Ptr_arith -> "ptr-arith"
  | Via_call -> "via-call"
  | Via_global -> "via-global"
  | Via_field -> "via-field"

(* ------------------------------------------------------------------ *)

let n_elems = 12
let arr_ty = Ctype.Array (Ctype.I64, n_elems)
let jbuf_ty = Ctype.Struct "jbuf"

let inner_elems = 4
let inner_arr_ty = Ctype.Array (Ctype.I64, inner_elems)

let tenv =
  let t =
    Ctype.declare Ctype.empty_tenv
      {
        Ctype.sname = "jbuf";
        fields =
          [
            { fname = "data"; fty = arr_ty };
            { fname = "sentinel"; fty = Ctype.I64 };
          ];
      }
  in
  let t =
    Ctype.declare t
      {
        Ctype.sname = "jinner";
        fields =
          [
            { fname = "data"; fty = inner_arr_ty };
            { fname = "guard"; fty = Ctype.I64 };
          ];
      }
  in
  Ctype.declare t
    {
      Ctype.sname = "jnested";
      fields =
        [
          { fname = "pre"; fty = Ctype.I64 };
          { fname = "inner"; fty = Ctype.Array (Ctype.Struct "jinner", 3) };
          { fname = "post"; fty = Ctype.I64 };
        ];
    }

let tenv =
  Ctype.declare tenv
    {
      Ctype.sname = "jholder";
      fields = [ { fname = "p"; fty = Ctype.Ptr Ctype.I8 } ];
    }

let jholder_ty = Ctype.Struct "jholder"
let jnested_ty = Ctype.Struct "jnested"

let is_read = function
  | Overread | Underread | Use_after_free -> true
  | Overflow | Underwrite | Intra_object | Nested_intra | Write_to_freed
  | Double_free ->
    false

(* index values: read through an opaque global so no compile-time
   analysis can prove or disprove safety, as Juliet's flow variants do *)
let indices kind =
  match kind with
  | Overflow | Overread | Intra_object -> (5, n_elems)
  | Nested_intra -> (2, inner_elems) (* data[4] lands on the guard field *)
  | Underwrite | Underread -> (2, -1)
  | Use_after_free | Write_to_freed | Double_free ->
    (* temporal badness is when, not where: both variants index safely *)
    (5, 5)

(* object type: intra-object cases use the struct (the overflow stays
   inside the object and only subobject granularity can catch it) *)
let obj_ty kind =
  match kind with
  | Intra_object -> jbuf_ty
  | Nested_intra -> jnested_ty
  | _ -> arr_ty

(* an access to element [idx] of the buffer reached through [base] *)
let access kind base idx =
  let target =
    match kind with
    | Intra_object -> Gep (jbuf_ty, base, [ fld "data"; at idx ])
    | Nested_intra ->
      Gep (jnested_ty, base, [ fld "inner"; at (i 1); fld "data"; at idx ])
    | _ -> Gep (arr_ty, base, [ at idx ])
  in
  if is_read kind then
    [ Let ("sink", Ctype.I64, Load (Ctype.I64, target));
      Store_global ("gsink", Load_global "gsink" +: v "sink") ]
  else [ Store (Ctype.I64, target, i 7) ]

(* like [access] but usable in a callee (unique sink temp name) *)
let access_in tmp kind base idx =
  let target =
    match kind with
    | Intra_object -> Gep (jbuf_ty, base, [ fld "data"; at idx ])
    | Nested_intra ->
      Gep (jnested_ty, base, [ fld "inner"; at (i 1); fld "data"; at idx ])
    | _ -> Gep (arr_ty, base, [ at idx ])
  in
  if is_read kind then
    [ Let (tmp, Ctype.I64, Load (Ctype.I64, target));
      Store_global ("gsink", Load_global "gsink" +: v tmp) ]
  else [ Store (Ctype.I64, target, i 7) ]

let build_program kind place flow ~bad =
  let ty = obj_ty kind in
  let tp = Ctype.Ptr ty in
  let good_idx, bad_idx = indices kind in
  let idx_value = if bad then bad_idx else good_idx in
  let gidx = global "gidx" Ctype.I64 in
  let gsink = global "gsink" Ctype.I64 in
  (* pointer type stored in the global for the Via_global flow: for
     intra-object cases the *subobject* pointer round-trips through
     memory, exercising promote's layout-table narrowing *)
  let gptr_ty =
    match kind with
    | Intra_object -> Ctype.Ptr arr_ty
    | Nested_intra -> Ctype.Ptr inner_arr_ty
    | _ -> tp
  in
  let worker_arr_ty =
    match kind with Nested_intra -> inner_arr_ty | _ -> arr_ty
  in
  let gptr = global "gptr" gptr_ty in
  let touch = func "touch" [ ("p", tp) ] Ctype.Void [ Return None ] in
  let for_ var ~from ~below body =
    [ Let (var, Ctype.I64, from);
      While (v var <: below, body @ [ Assign (var, v var +: i 1) ]) ]
  in
  let init_elems base =
    (* initialise the legal elements so reads are deterministic *)
    match kind with
    | Nested_intra ->
      for_ "ini" ~from:(i 0) ~below:(i inner_elems)
        [
          Store (Ctype.I64,
                 Gep (jnested_ty, base, [ fld "inner"; at (i 1); fld "data"; at (v "ini") ]),
                 v "ini");
        ]
    | Intra_object ->
      for_ "ini" ~from:(i 0) ~below:(i n_elems)
        [ Store (Ctype.I64, Gep (jbuf_ty, base, [ fld "data"; at (v "ini") ]), v "ini") ]
    | _ ->
      for_ "ini" ~from:(i 0) ~below:(i n_elems)
        [ Store (Ctype.I64, Gep (arr_ty, base, [ at (v "ini") ]), v "ini") ]
  in
  let base_expr_main = v "bufp" in
  let alloc_stmts =
    match place with
    | Stack ->
      [
        (* an adjacent victim local above the buffer, so the baseline
           overflow corrupts it silently instead of faulting at the top
           of the stack (the classic Juliet frame layout) *)
        Decl_local ("victim", arr_ty);
        Expr (Call ("touch", [ Cast (tp, Addr_local "victim") ]));
        Decl_local ("buf", ty);
        Expr (Call ("touch", [ Addr_local "buf" ]));
        Let ("bufp", tp, Addr_local "buf");
      ]
    | Heap -> [ Let ("bufp", tp, Malloc (ty, i 1)) ]
  in
  let idx = Load_global "gidx" in
  let funcs, site_stmts =
    match flow with
    | Direct -> ([], access kind base_expr_main idx)
    | Loop ->
      (* the loop bound comes from the opaque global; the bad variant
         walks one element too far (or starts one too early) *)
      let body k = access kind base_expr_main (v k) in
      ( [],
        if is_read kind && kind = Underread then
          [
            Let ("k", Ctype.I64, idx);
            While (v "k" <: i 3, body "k" @ [ Assign ("k", v "k" +: i 1) ]);
          ]
        else if kind = Underwrite then
          [
            Let ("k", Ctype.I64, idx);
            While (v "k" <: i 3, body "k" @ [ Assign ("k", v "k" +: i 1) ]);
          ]
        else
          [
            Let ("k", Ctype.I64, i 0);
            While (v "k" <=: idx, body "k" @ [ Assign ("k", v "k" +: i 1) ]);
          ] )
    | Ptr_arith ->
      (* derive an element pointer, move it with pointer arithmetic *)
      let elem0 =
        match kind with
        | Intra_object -> Gep (jbuf_ty, base_expr_main, [ fld "data"; at (i 0) ])
        | Nested_intra ->
          Gep (jnested_ty, base_expr_main,
               [ fld "inner"; at (i 1); fld "data"; at (i 0) ])
        | _ -> Gep (arr_ty, base_expr_main, [ at (i 0) ])
      in
      let stmts =
        [ Let ("q", Ctype.Ptr Ctype.I64, elem0);
          Let ("q2", Ctype.Ptr Ctype.I64, Gep (Ctype.I64, v "q", [ at idx ])) ]
        @
        if is_read kind then
          [ Let ("sink", Ctype.I64, Load (Ctype.I64, v "q2"));
            Store_global ("gsink", Load_global "gsink" +: v "sink") ]
        else [ Store (Ctype.I64, v "q2", i 7) ]
      in
      ([], stmts)
    | Via_call ->
      let worker =
        func "worker" [ ("p", tp) ] Ctype.Void
          (access_in "wsink" kind (v "p") (Load_global "gidx") @ [ Return None ])
      in
      ([ worker ], [ Expr (Call ("worker", [ base_expr_main ])) ])
    | Via_field ->
      (* store the (subobject) pointer into a heap holder's field, then a
         worker reloads it — bounds are dropped at the store (demote) and
         must be recovered by promote on the load *)
      let stored_expr =
        match kind with
        | Intra_object -> Gep (jbuf_ty, base_expr_main, [ fld "data" ])
        | Nested_intra ->
          Gep (jnested_ty, base_expr_main, [ fld "inner"; at (i 1); fld "data" ])
        | _ -> base_expr_main
      in
      let worker =
        func "worker" [ ("h", Ctype.Ptr jholder_ty) ] Ctype.Void
          (let q =
             Let ("q", gptr_ty,
                  Cast (gptr_ty,
                        Load (Ctype.Ptr Ctype.I8,
                              Gep (jholder_ty, v "h", [ fld "p" ]))))
           in
           let acc =
             if is_read kind then
               [ Let ("wsink", Ctype.I64,
                      Load (Ctype.I64,
                            Gep (worker_arr_ty, v "q", [ at (Load_global "gidx") ])));
                 Store_global ("gsink", Load_global "gsink" +: v "wsink") ]
             else
               [ Store (Ctype.I64,
                        Gep (worker_arr_ty, v "q", [ at (Load_global "gidx") ]), i 7) ]
           in
           (q :: acc) @ [ Return None ])
      in
      ( [ worker ],
        [
          Let ("holder", Ctype.Ptr jholder_ty, Malloc (jholder_ty, i 1));
          Store (Ctype.Ptr Ctype.I8,
                 Gep (jholder_ty, v "holder", [ fld "p" ]),
                 Cast (Ctype.Ptr Ctype.I8, stored_expr));
          Expr (Call ("worker", [ v "holder" ]));
        ] )
    | Via_global ->
      let stored_expr =
        match kind with
        | Intra_object -> Gep (jbuf_ty, base_expr_main, [ fld "data" ])
        | Nested_intra ->
          Gep (jnested_ty, base_expr_main, [ fld "inner"; at (i 1); fld "data" ])
        | _ -> base_expr_main
      in
      let worker =
        func "worker" [] Ctype.Void
          (let q = Let ("q", gptr_ty, Load_global "gptr") in
           let acc =
             if is_read kind then
               [ Let ("wsink", Ctype.I64,
                      Load (Ctype.I64,
                            Gep (worker_arr_ty, v "q", [ at (Load_global "gidx") ])));
                 Store_global ("gsink", Load_global "gsink" +: v "wsink") ]
             else
               [ Store (Ctype.I64,
                        Gep (worker_arr_ty, v "q", [ at (Load_global "gidx") ]), i 7) ]
           in
           (q :: acc) @ [ Return None ])
      in
      ( [ worker ],
        [ Store_global ("gptr", stored_expr); Expr (Call ("worker", [])) ] )
  in
  let main =
    func "main" [] Ctype.I64
      ([ Store_global ("gidx", i idx_value) ]
      @ alloc_stmts @ init_elems base_expr_main @ site_stmts
      @ [ Return (Some (Load_global "gsink")) ])
  in
  program ~tenv ~globals:[ gidx; gsink; gptr ] (touch :: funcs @ [ main ])

(* Via_global with a non-array object type loads the object pointer, but
   the worker indexes it as an array — for the plain-array kinds gptr_ty
   is already Ptr arr_ty, so the Gep in the worker is well-typed for
   every kind. *)

(* ---- temporal families (CWE-416 use-after-free, CWE-415 double free,
   write-to-freed) ----------------------------------------------------

   Shape: the buffer pointer is parked in memory (heap holder field or
   global) while still live, the object is freed, and a same-sized churn
   allocation recycles its chunk — under a spatial-only design the stale
   pointer then promotes against the churn object's perfectly valid
   metadata, so the use is silent (the classic temporal hole). The stale
   pointer is always *reloaded from memory* before use: promote is the
   temporal checkpoint, and a register-resident stale pointer is the
   design's documented blind spot, so these families only exercise the
   flows the hardware claims to cover. The [bad] variant frees before
   the use; the [good] variant is identical but frees (once) after. *)
let build_temporal_program kind flow ~bad =
  let tp = Ctype.Ptr arr_ty in
  let gidx = global "gidx" Ctype.I64 in
  let gsink = global "gsink" Ctype.I64 in
  let gptr = global "gptr" tp in
  let for_ var ~below body =
    [ Let (var, Ctype.I64, i 0);
      While (v var <: below, body @ [ Assign (var, v var +: i 1) ]) ]
  in
  let init base bump =
    for_ "ini" ~below:(i n_elems)
      [ Store (Ctype.I64, Gep (arr_ty, base, [ at (v "ini") ]),
               v "ini" +: i bump) ]
  in
  let use_stmts q =
    match kind with
    | Use_after_free ->
      [ Let ("wsink", Ctype.I64,
             Load (Ctype.I64, Gep (arr_ty, q, [ at (Load_global "gidx") ])));
        Store_global ("gsink", Load_global "gsink" +: v "wsink") ]
    | Write_to_freed ->
      [ Store (Ctype.I64, Gep (arr_ty, q, [ at (Load_global "gidx") ]), i 7) ]
    | Double_free -> [ Free q ]
    | _ -> assert false
  in
  let worker, park_stmts, call_stmt =
    match flow with
    | Via_field ->
      ( func "worker" [ ("h", Ctype.Ptr jholder_ty) ] Ctype.Void
          (Let ("q", tp,
                Cast (tp,
                      Load (Ctype.Ptr Ctype.I8,
                            Gep (jholder_ty, v "h", [ fld "p" ]))))
           :: use_stmts (v "q")
          @ [ Return None ]),
        [ Let ("holder", Ctype.Ptr jholder_ty, Malloc (jholder_ty, i 1));
          Store (Ctype.Ptr Ctype.I8,
                 Gep (jholder_ty, v "holder", [ fld "p" ]),
                 Cast (Ctype.Ptr Ctype.I8, v "bufp")) ],
        Expr (Call ("worker", [ v "holder" ])) )
    | Via_global ->
      ( func "worker" [] Ctype.Void
          (Let ("q", tp, Load_global "gptr")
           :: use_stmts (v "q")
          @ [ Return None ]),
        [ Store_global ("gptr", v "bufp") ],
        Expr (Call ("worker", [])) )
    | _ -> assert false
  in
  let main =
    func "main" [] Ctype.I64
      (List.concat
         [
           [ Store_global ("gidx", i 5);
             Let ("bufp", tp, Malloc (arr_ty, i 1)) ];
           park_stmts;
           init (v "bufp") 0;
           (if bad then [ Free (v "bufp") ] else []);
           (* same-sized churn: under a recycling allocator it takes over
              the freed chunk, so the stale use has live data to corrupt
              or leak instead of faulting on unmapped memory *)
           [ Let ("churn", tp, Malloc (arr_ty, i 1)) ];
           init (v "churn") 100;
           [ call_stmt ];
           (match kind with
           | Double_free -> []
           | _ -> if bad then [] else [ Free (v "bufp") ]);
           [ Return (Some (Load_global "gsink")) ];
         ])
  in
  program ~tenv ~globals:[ gidx; gsink; gptr ] [ worker; main ]

let temporal_cases () =
  let kinds = [ Use_after_free; Write_to_freed; Double_free ] in
  let flows = [ Via_field; Via_global ] in
  List.concat_map
    (fun kind ->
      List.map
        (fun flow ->
          let id =
            Printf.sprintf "%s-heap-%s" (kind_to_string kind)
              (flow_to_string flow)
          in
          {
            id;
            kind;
            place = Heap;
            flow;
            good = build_temporal_program kind flow ~bad:false;
            bad = build_temporal_program kind flow ~bad:true;
          })
        flows)
    kinds

let all_cases () =
  let kinds =
    [ Overflow; Underwrite; Overread; Underread; Intra_object; Nested_intra ]
  in
  let places = [ Stack; Heap ] in
  let flows = [ Direct; Loop; Ptr_arith; Via_call; Via_global; Via_field ] in
  List.concat_map
    (fun kind ->
      List.concat_map
        (fun place ->
          List.map
            (fun flow ->
              let id =
                Printf.sprintf "%s-%s-%s" (kind_to_string kind)
                  (place_to_string place) (flow_to_string flow)
              in
              {
                id;
                kind;
                place;
                flow;
                good = build_program kind place flow ~bad:false;
                bad = build_program kind place flow ~bad:true;
              })
            flows)
        places)
    kinds

(* ------------------------------------------------------------------ *)

type verdict = Detected | Silent | Error of string

type outcome = { case : case; bad_verdict : verdict; good_ok : bool }

let outcome_of_results case ~bad ~good =
  let bad_verdict =
    match bad.Vm.outcome with
    | Vm.Trapped _ -> Detected
    | Vm.Finished _ -> Silent
    | Vm.Aborted m -> Error (Vm.abort_reason_string m)
  in
  let good_ok =
    match good.Vm.outcome with
    | Vm.Finished _ -> true
    | Vm.Trapped _ | Vm.Aborted _ -> false
  in
  { case; bad_verdict; good_ok }

let run_case ~config case =
  let run p = Vm.run ~config p in
  outcome_of_results case ~bad:(run case.bad) ~good:(run case.good)

type summary = {
  total : int;
  detected : int;
  missed : int;
  good_failures : int;
}

let summarize outcomes =
  let summary =
    List.fold_left
      (fun s o ->
        {
          total = s.total + 1;
          detected = (s.detected + match o.bad_verdict with Detected -> 1 | _ -> 0);
          missed = (s.missed + match o.bad_verdict with Silent -> 1 | _ -> 0);
          good_failures = s.good_failures + (if o.good_ok then 0 else 1);
        })
      { total = 0; detected = 0; missed = 0; good_failures = 0 }
      outcomes
  in
  (outcomes, summary)

let run_all_with ~run cases =
  summarize
    (List.map
       (fun case ->
         outcome_of_results case ~bad:(run case `Bad) ~good:(run case `Good))
       cases)

let run_all ~config cases = summarize (List.map (run_case ~config) cases)
