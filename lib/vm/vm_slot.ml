(* The slot-resolved interpreter engine ([Eng_vm]). The execution
   substrate — configuration, machine state, cost charging, checked
   access, promote, registration, setup, run scaffolding — lives in
   {!Rt} and is shared with the closure-compiled engine ({!Vm_closure});
   this module is the direct-recursion strategy over those primitives.
   It is reached only through {!Vm.run} with [engine = Eng_vm]. *)

open Rt

let rec eval st frame (e : R.expr) : value =
  match e with
  | R.Int x -> VI x
  | R.Float f -> VF f
  | R.Var i ->
    (* in-bounds by resolution *)
    let v = Array.unsafe_get frame.vars i in
    if v == unbound then abort ("unbound variable " ^ frame.rf.var_names.(i))
    else v
  | R.Binop (Ir.LAnd, a, b) ->
    base st 1;
    if not (truth (eval st frame a)) then vi_zero
    else vi_bool (truth (eval st frame b))
  | R.Binop (Ir.LOr, a, b) ->
    base st 1;
    if truth (eval st frame a) then vi_one
    else vi_bool (truth (eval st frame b))
  | R.Binop (op, a, b) -> eval_binop st op (eval st frame a) (eval st frame b)
  | R.Unop (op, a) -> eval_unop st op (eval st frame a)
  | R.Load { cls; bytes; addr } -> do_load st frame cls bytes (eval st frame addr)
  | R.Addr_local slot ->
    base st 1;
    let addr = frame.local_addr.(slot) in
    if Int64.equal addr local_unset then
      abort ("address of unknown local " ^ frame.rf.local_names.(slot))
    else if ifp_mode st && frame.instrumented then begin
      charge_ifp st Insn.Ifpbnd 1;
      VP (frame.local_tagged.(slot), Bounds.of_base_size addr frame.local_size.(slot))
    end
    else VP (addr, Bounds.no_bounds)
  | R.Addr_global g ->
    let go = st.globals.(g) in
    if ifp_mode st && frame.instrumented then begin
      (* the "getptr" helper call of §4.2.2 *)
      base st 5;
      charge_ifp st Insn.Ifpbnd 1;
      VP (go.gtagged, go.gbounds)
    end
    else begin
      base st 1;
      VP (go.gaddr, Bounds.no_bounds)
    end
  | R.Load_global { g; cls; bytes } -> (
    (* by-name access: untagged, uninstrumented *)
    let go = st.globals.(g) in
    charge_load st go.gaddr bytes;
    let raw = Memory.read_size st.mem go.gaddr ~bytes in
    match cls with
    | R.Cls_ptr -> VP (raw, Bounds.no_bounds)
    | R.Cls_f64 -> VF (Int64.float_of_bits raw)
    | R.Cls_int -> VI (sext raw bytes))
  | R.Gep { base; steps; idx_delta; site = _ } ->
    eval_gep st frame (eval st frame base) steps idx_delta
  | R.Call { target; args; n_args } -> eval_call st frame target args n_args
  | R.Malloc { scale; count; cty; layout_multi } ->
    let n = Int64.to_int (eval_i st frame count) in
    do_malloc st frame ~size:(Ifp_util.Bits.imax 1 n * scale) ~cty ~layout_multi
  | R.Cast { kind; e } -> (
    let v = eval st frame e in
    match kind with
    | R.Cast_ptr -> (
      match v with
      | VI w -> if Int64.equal w 0L then null_ptr else VP (w, Bounds.no_bounds)
      | VP _ -> v
      | VF _ -> abort "float to pointer cast")
    | R.Cast_f64 ->
      base st 1;
      VF (as_float v)
    | R.Cast_int n -> (
      match v with
      | VF f ->
        base st 1;
        VI (Int64.of_float f)
      | v -> VI (sext (as_int v) n)))
  | R.Ifp_promote { e; site = _ } -> eval_promote st (eval st frame e)

(* Unboxed integer evaluation: [eval_i st frame e] computes
   [as_int (eval st frame e)] without materialising the intermediate
   value, for the integer contexts (conditions, integer arithmetic, gep
   indexes, malloc counts, integer stores) where the hot path would
   otherwise allocate per node. Charges and failure order match the
   generic path exactly — including the right-to-left operand
   evaluation the generic [Binop] application performs. *)
and eval_i st frame (e : R.expr) : int64 =
  match e with
  | R.Int x -> x
  | R.Var i ->
    let v = Array.unsafe_get frame.vars i in
    if v == unbound then abort ("unbound variable " ^ frame.rf.var_names.(i))
    else as_int v
  | R.Binop (Ir.LAnd, a, b) ->
    base st 1;
    if Int64.equal (eval_i st frame a) 0L then 0L
    else if Int64.equal (eval_i st frame b) 0L then 0L
    else 1L
  | R.Binop (Ir.LOr, a, b) ->
    base st 1;
    if not (Int64.equal (eval_i st frame a) 0L) then 1L
    else if Int64.equal (eval_i st frame b) 0L then 0L
    else 1L
  | R.Binop
      ( (( Ir.Add | Ir.Sub | Ir.Mul | Ir.Div | Ir.Rem | Ir.BAnd | Ir.BOr
         | Ir.BXor | Ir.Shl | Ir.Shr ) as op),
        a,
        b ) -> (
    let y = eval_i st frame b in
    let x = eval_i st frame a in
    match op with
    | Ir.Add ->
      base st 1;
      Int64.add x y
    | Ir.Sub ->
      base st 1;
      Int64.sub x y
    | Ir.Mul ->
      cycles st (Cost.mul - 1);
      base st 1;
      Int64.mul x y
    | Ir.Div ->
      cycles st (Cost.div - 1);
      if Int64.equal y 0L then abort "division by zero";
      base st 1;
      Int64.div x y
    | Ir.Rem ->
      cycles st (Cost.div - 1);
      if Int64.equal y 0L then abort "remainder by zero";
      base st 1;
      Int64.rem x y
    | Ir.BAnd ->
      base st 1;
      Int64.logand x y
    | Ir.BOr ->
      base st 1;
      Int64.logor x y
    | Ir.BXor ->
      base st 1;
      Int64.logxor x y
    | Ir.Shl ->
      base st 1;
      Int64.shift_left x (Int64.to_int y land 63)
    | Ir.Shr ->
      base st 1;
      Int64.shift_right_logical x (Int64.to_int y land 63)
    | _ -> assert false)
  | R.Unop (((Ir.Neg | Ir.BNot | Ir.LNot) as op), a) -> (
    let x = eval_i st frame a in
    base st 1;
    match op with
    | Ir.Neg -> Int64.neg x
    | Ir.BNot -> Int64.lognot x
    | Ir.LNot -> if Int64.equal x 0L then 1L else 0L
    | _ -> assert false)
  | R.Load { cls = R.Cls_int; bytes; addr } ->
    do_load_int st frame bytes (eval st frame addr)
  | R.Binop (((Ir.Eq | Ir.Ne | Ir.Lt | Ir.Le | Ir.Gt | Ir.Ge) as op), a, b) ->
    (* operands may be pointers; evaluate generically, then an unboxed compare *)
    let vb = eval st frame b in
    let va = eval st frame a in
    base st 1;
    let c =
      match (va, vb) with
      | VP (wa, _), VP (wb, _) -> Int64.compare (Tag.addr wa) (Tag.addr wb)
      | _ -> Int64.compare (as_int va) (as_int vb)
    in
    (match op with
    | Ir.Eq -> if c = 0 then 1L else 0L
    | Ir.Ne -> if c <> 0 then 1L else 0L
    | Ir.Lt -> if c < 0 then 1L else 0L
    | Ir.Le -> if c <= 0 then 1L else 0L
    | Ir.Gt -> if c > 0 then 1L else 0L
    | Ir.Ge -> if c >= 0 then 1L else 0L
    | _ -> assert false)
  | R.Binop (((Ir.FEq | Ir.FLt | Ir.FLe) as op), a, b) ->
    let vb = eval st frame b in
    let va = eval st frame a in
    base st 1;
    cycles st (Cost.fp - 1);
    let y = as_float vb in
    let x = as_float va in
    (match op with
    | Ir.FEq -> if x = y then 1L else 0L
    | Ir.FLt -> if x < y then 1L else 0L
    | Ir.FLe -> if x <= y then 1L else 0L
    | _ -> assert false)
  | e -> as_int (eval st frame e)

and eval_gep st frame basev steps idx_delta =
  let w =
    match basev with
    | VP (w, _) | VI w -> w
    | VF _ -> abort "float used as pointer"
  in
  let b = match basev with VP (_, b) -> b | _ -> Bounds.no_bounds in
  let addr0 = Tag.addr w in
  (* resolve folded static field runs, so the common shapes are a single
     step and need neither mutable walk state nor a loop *)
  match steps with
  | [] -> gep_finish st frame w b idx_delta ~delta:0L ~dyn:0 ~nb_lo:0L ~nb_hi:0L ~have_nb:false
  | [ R.Rs_field { off; fsize } ] ->
    let lo = Int64.add addr0 (Int64.of_int off) in
    gep_finish st frame w b idx_delta ~delta:(Int64.of_int off) ~dyn:0
      ~nb_lo:lo ~nb_hi:(Int64.add lo (Int64.of_int fsize)) ~have_nb:true
  | [ R.Rs_index { esize; idx } ] ->
    let k = eval_i st frame idx in
    gep_finish st frame w b idx_delta ~delta:(Int64.mul k (Int64.of_int esize))
      ~dyn:1 ~nb_lo:0L ~nb_hi:0L ~have_nb:false
  | steps ->
    let addr, nb_lo, nb_hi, have_nb, dyn =
      gep_walk st frame steps addr0 0L 0L false 0
    in
    gep_finish st frame w b idx_delta ~delta:(Int64.sub addr addr0) ~dyn
      ~nb_lo ~nb_hi ~have_nb

and gep_walk st frame steps addr nb_lo nb_hi have_nb dyn =
  match steps with
  | [] -> (addr, nb_lo, nb_hi, have_nb, dyn)
  | R.Rs_field { off; fsize } :: rest ->
    (* narrowed bounds of the last field step *)
    let a' = Int64.add addr (Int64.of_int off) in
    gep_walk st frame rest a' a' (Int64.add a' (Int64.of_int fsize)) true dyn
  | R.Rs_index { esize; idx } :: rest ->
    let k = eval_i st frame idx in
    gep_walk st frame rest
      (Int64.add addr (Int64.mul k (Int64.of_int esize)))
      nb_lo nb_hi have_nb (dyn + 1)

and eval_call st frame target args n_args =
  match target with
  | R.C_func i ->
    (* evaluate arguments straight into the callee's slots. Binds are
       unobservable between argument evaluations, so this matches the
       reference's evaluate-all-then-bind order. *)
    let f = st.rp.funcs.(i) in
    let callee_frame = make_frame f in
    List.iter2
      (fun p e ->
        let v = eval st frame e in
        (* extended calling convention: bounds travel with pointer args,
           unless the callee is legacy code *)
        let v = if f.instrumented then v else strip_bounds v in
        Array.unsafe_set callee_frame.vars p v)
      f.params args;
    let spills = call_prelude st f n_args in
    call_run st f callee_frame spills
  (* a print takes exactly one argument, [__abort] none (Resolve's
     input contract) *)
  | R.C_print_i64 ->
    let v = eval st frame (List.hd args) in
    base st 3;
    print st (Int64.to_string (as_int v));
    VI 0L
  | R.C_print_f64 ->
    let v = eval st frame (List.hd args) in
    base st 3;
    print st (Printf.sprintf "%.6g" (as_float v));
    VI 0L
  | R.C_abort -> abort "program called __abort"

and call_run st (f : R.func) callee_frame spills =
  let saved_sp = st.sp in
  let ret =
    match exec_list st callee_frame f.body with
    | () -> VI 0L
    | exception Return_exc v -> v
  in
  st.sp <- saved_sp;
  st.depth <- st.depth - 1;
  if spills > 0 then charge_ifp st Insn.Ldbnd spills;
  (* implicit bounds clearing on return from legacy code (§4.1.2) *)
  if f.instrumented then ret else strip_bounds ret

and exec st frame (s : R.stmt) : unit =
  match s with
  | R.Let { slot; k; e } ->
    let v =
      match k with
      | R.K_i64 -> VI (eval_i st frame e)
      | R.K_i32 -> VI (sext (eval_i st frame e) 4)
      | R.K_i16 -> VI (sext (eval_i st frame e) 2)
      | R.K_i8 -> VI (sext (eval_i st frame e) 1)
      | k -> coerce k (eval st frame e)
    in
    base st 1;
    Array.unsafe_set frame.vars slot v
  | R.Assign { slot; e } ->
    let v = eval st frame e in
    base st 1;
    if Array.unsafe_get frame.vars slot == unbound then
      abort ("assign to unbound variable " ^ frame.rf.var_names.(slot))
    else Array.unsafe_set frame.vars slot v
  | R.Decl_local { slot; size; tyid } ->
    if Int64.equal frame.local_addr.(slot) local_unset then begin
      let footprint =
        if ifp_mode st && frame.instrumented then
          Meta.Local_offset.footprint ~size
        else Ifp_util.Bits.align_up size 16
      in
      let addr =
        Ifp_util.Bits.align_down64 (Int64.sub st.sp (Int64.of_int footprint)) 16
      in
      if Int64.compare addr st.stack_limit < 0 then raise (Abort Stack_overflow);
      st.sp <- addr;
      base st 1;
      frame.local_addr.(slot) <- addr;
      frame.local_tagged.(slot) <- addr;
      frame.local_size.(slot) <- size;
      frame.local_tyid.(slot) <- tyid
    end
  | R.Store { cls = R.Cls_int; bytes; addr; v } ->
    let a = eval st frame addr in
    let raw = eval_i st frame v in
    do_store_int st frame bytes a raw
  | R.Store { cls; bytes; addr; v } ->
    let a = eval st frame addr in
    let value = eval st frame v in
    do_store st frame cls bytes a value
  | R.Store_global { g; cls = R.Cls_int; bytes; e } ->
    let raw = eval_i st frame e in
    let go = st.globals.(g) in
    charge_store st go.gaddr bytes;
    Memory.write_size st.mem go.gaddr ~bytes raw
  | R.Store_global { g; cls; bytes; e } ->
    let v = eval st frame e in
    let go = st.globals.(g) in
    charge_store st go.gaddr bytes;
    let raw = store_raw st frame cls v in
    Memory.write_size st.mem go.gaddr ~bytes raw
  | R.If (c, t, e) ->
    base st 2 (* compare + branch *);
    if not (Int64.equal (eval_i st frame c) 0L) then exec_list st frame t
    else exec_list st frame e
  | R.While (c, body) ->
    let rec loop () =
      budget_check st;
      base st 2 (* compare + branch *);
      if not (Int64.equal (eval_i st frame c) 0L) then begin
        (match exec_list st frame body with
        | () -> ()
        | exception Continue_exc -> ());
        loop ()
      end
    in
    (try loop () with Break_exc -> ())
  | R.Return None -> raise (Return_exc (VI 0L))
  | R.Return (Some e) -> raise (Return_exc (eval st frame e))
  | R.Expr e -> ignore (eval st frame e)
  | R.Free e ->
    let w, _ = as_ptr (eval st frame e) in
    let c = st.allocator.free w in
    charge_alloc_cost st c
  | R.Break -> raise Break_exc
  | R.Continue -> raise Continue_exc
  | R.Ifp_register_local { slot; site = _ } -> register_local st frame slot
  | R.Ifp_deregister_local slot -> deregister_local st frame slot

and exec_list st frame = function
  | [] -> ()
  | s :: rest ->
    exec st frame s;
    exec_list st frame rest

let run ~config image =
  run_with ~config image ~main_body:(fun st frame mainf ->
      exec_list st frame mainf.body)
