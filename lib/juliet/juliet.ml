open Ifp_compiler.Ir
module Ctype = Ifp_types.Ctype
module Vm = Ifp_vm.Vm
module Verdict = Ifp_faultinject.Verdict

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

let n_elems = 12
let arr_ty = Ctype.Array (Ctype.I64, n_elems)
let jbuf_ty = Ctype.Struct "jbuf"

let inner_elems = 4
let inner_arr_ty = Ctype.Array (Ctype.I64, inner_elems)

let tenv =
  let struct_ sname fields =
    { Ctype.sname; fields = List.map (fun (fname, fty) -> { Ctype.fname; fty }) fields }
  in
  List.fold_left Ctype.declare Ctype.empty_tenv
    [
      struct_ "jbuf" [ ("data", arr_ty); ("sentinel", Ctype.I64) ];
      struct_ "jinner" [ ("data", inner_arr_ty); ("guard", Ctype.I64) ];
      struct_ "jnested"
        [
          ("pre", Ctype.I64);
          ("inner", Ctype.Array (Ctype.Struct "jinner", 3));
          ("post", Ctype.I64);
        ];
      struct_ "jholder" [ ("p", Ctype.Ptr Ctype.I8) ];
    ]

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

(* the array a case indexes, and the field steps from the object to it *)
let data_len = function Nested_intra -> inner_elems | _ -> n_elems
let data_ty kind = Ctype.Array (Ctype.I64, data_len kind)

let data_path = function
  | Intra_object -> [ fld "data" ]
  | Nested_intra -> [ fld "inner"; at (i 1); fld "data" ]
  | _ -> []

(* element [idx] of the array, reached from the object at [base] *)
let elem kind base idx = Gep (obj_ty kind, base, data_path kind @ [ at idx ])

(* the case's access to [target]: a read into [tmp] summed into gsink,
   or a store *)
let use ?(tmp = "sink") kind target =
  if is_read kind then
    [ Let (tmp, Ctype.I64, Load (Ctype.I64, target));
      Store_global ("gsink", Load_global "gsink" +: v tmp) ]
  else [ Store (Ctype.I64, target, i 7) ]

let for_ var ~from cond body =
  [ Let (var, Ctype.I64, from); While (cond, body @ [ Assign (var, v var +: i 1) ]) ]

(* initialise the legal elements so reads are deterministic *)
let init kind base value =
  for_ "ini" ~from:(i 0) (v "ini" <: i (data_len kind))
    [ Store (Ctype.I64, elem kind base (v "ini"), value) ]

let gidx = Load_global "gidx"

let globals kind =
  [ global "gidx" Ctype.I64; global "gsink" Ctype.I64;
    global "gptr" (Ctype.Ptr (data_ty kind)) ]

(* [ptr] is parked in memory, then a worker reloads it as [q] (typed
   [ty]) and runs [uses q]: through a heap holder's field (demoted on the
   store, promoted again on the reload) or through the global gptr.
   Returns the worker, the parking statements and the call. *)
let parked flow ~ty ptr uses =
  match flow with
  | Via_field ->
    let q = Load (Ctype.Ptr Ctype.I8, Gep (jholder_ty, v "h", [ fld "p" ])) in
    ( func "worker" [ ("h", Ctype.Ptr jholder_ty) ] Ctype.Void
        ((Let ("q", ty, Cast (ty, q)) :: uses (v "q")) @ [ Return None ]),
      [ Let ("holder", Ctype.Ptr jholder_ty, Malloc (jholder_ty, i 1));
        Store (Ctype.Ptr Ctype.I8, Gep (jholder_ty, v "holder", [ fld "p" ]),
               Cast (Ctype.Ptr Ctype.I8, ptr)) ],
      Expr (Call ("worker", [ v "holder" ])) )
  | Via_global ->
    ( func "worker" [] Ctype.Void
        ((Let ("q", ty, Load_global "gptr") :: uses (v "q")) @ [ Return None ]),
      [ Store_global ("gptr", ptr) ],
      Expr (Call ("worker", [])) )
  | Direct | Loop | Ptr_arith | Via_call -> assert false

let build_program kind place flow ~bad =
  let ty = obj_ty kind in
  let tp = Ctype.Ptr ty in
  let good_idx, bad_idx = indices kind in
  let touch = func "touch" [ ("p", tp) ] Ctype.Void [ Return None ] in
  let bufp = v "bufp" in
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
  let funcs, site_stmts =
    match flow with
    | Direct -> ([], use kind (elem kind bufp gidx))
    | Loop ->
      (* the loop bound comes from the opaque global; the bad variant
         walks one element too far (or starts one too early) *)
      let k = v "k" in
      let body = use kind (elem kind bufp k) in
      ( [],
        match kind with
        | Underwrite | Underread -> for_ "k" ~from:gidx (k <: i 3) body
        | _ -> for_ "k" ~from:(i 0) (k <=: gidx) body )
    | Ptr_arith ->
      (* derive an element pointer, move it with pointer arithmetic *)
      ( [],
        [ Let ("q", Ctype.Ptr Ctype.I64, elem kind bufp (i 0));
          Let ("q2", Ctype.Ptr Ctype.I64, Gep (Ctype.I64, v "q", [ at gidx ])) ]
        @ use kind (v "q2") )
    | Via_call ->
      let worker =
        func "worker" [ ("p", tp) ] Ctype.Void
          (use ~tmp:"wsink" kind (elem kind (v "p") gidx) @ [ Return None ])
      in
      ([ worker ], [ Expr (Call ("worker", [ bufp ])) ])
    | Via_field | Via_global ->
      (* for intra-object cases the *subobject* pointer round-trips
         through memory, exercising promote's layout-table narrowing *)
      let data = match data_path kind with [] -> bufp | p -> Gep (ty, bufp, p) in
      let worker, park, call =
        parked flow ~ty:(Ctype.Ptr (data_ty kind)) data (fun q ->
            use ~tmp:"wsink" kind (Gep (data_ty kind, q, [ at gidx ])))
      in
      ([ worker ], park @ [ call ])
  in
  let main =
    func "main" [] Ctype.I64
      ([ Store_global ("gidx", i (if bad then bad_idx else good_idx)) ]
      @ alloc_stmts @ init kind bufp (v "ini") @ site_stmts
      @ [ Return (Some (Load_global "gsink")) ])
  in
  program ~tenv ~globals:(globals kind) (touch :: funcs @ [ main ])

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
  let worker, park_stmts, call_stmt =
    parked flow ~ty:tp (v "bufp") (fun q ->
        match kind with
        | Double_free -> [ Free q ]
        | _ -> use ~tmp:"wsink" kind (elem kind q gidx))
  in
  let main =
    func "main" [] Ctype.I64
      (List.concat
         [
           [ Store_global ("gidx", i 5);
             Let ("bufp", tp, Malloc (arr_ty, i 1)) ];
           park_stmts;
           init kind (v "bufp") (v "ini" +: i 0);
           (if bad then [ Free (v "bufp") ] else []);
           (* same-sized churn: under a recycling allocator it takes over
              the freed chunk, so the stale use has live data to corrupt
              or leak instead of faulting on unmapped memory *)
           [ Let ("churn", tp, Malloc (arr_ty, i 1)) ];
           init kind (v "churn") (v "ini" +: i 100);
           [ call_stmt ];
           (match kind with
           | Double_free -> []
           | _ -> if bad then [] else [ Free (v "bufp") ]);
           [ Return (Some (Load_global "gsink")) ];
         ])
  in
  program ~tenv ~globals:(globals kind) [ worker; main ]

let case kind place flow build =
  {
    id = String.concat "-" [ kind_to_string kind; place_to_string place; flow_to_string flow ];
    kind;
    place;
    flow;
    good = build ~bad:false;
    bad = build ~bad:true;
  }

let temporal_cases () =
  List.concat_map
    (fun kind ->
      List.map
        (fun flow -> case kind Heap flow (build_temporal_program kind flow))
        [ Via_field; Via_global ])
    [ Use_after_free; Write_to_freed; Double_free ]

let all_cases () =
  List.concat_map
    (fun kind ->
      List.concat_map
        (fun place ->
          List.map
            (fun flow -> case kind place flow (build_program kind place flow))
            [ Direct; Loop; Ptr_arith; Via_call; Via_global; Via_field ])
        [ Stack; Heap ])
    [ Overflow; Underwrite; Overread; Underread; Intra_object; Nested_intra ]

(* ------------------------------------------------------------------ *)

let program c = function Verdict.Detect -> c.bad | Verdict.Pass -> c.good

(* every trap of a bad program is the detection the suite asks for *)
let rows ~config ~run cases =
  List.concat_map
    (fun c ->
      List.map
        (fun expect ->
          let verdict = Verdict.classify ~expect:(fun _ -> true) (Vm.observe (run c expect)) in
          { Verdict.program = c; config; expect; verdict })
        [ Verdict.Detect; Verdict.Pass ])
    cases
