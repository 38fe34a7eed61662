(* Reference interpreter: the name-keyed tree walker that predates the
   slot-resolution pass. Every variable access goes through a string
   Hashtbl and every size/offset/layout is recomputed per access.

   Kept verbatim so that (a) the engine tests can differentially check
   that the other engines produce bit-identical counters, traces and output,
   and (b) perfbench can time it beside the faster engines
   ([vm.engine_s.vm-ref]). Do not "improve" this module — its value is
   being the unoptimised executable specification. *)

module Ctype = Ifp_types.Ctype
module Layout = Ifp_types.Layout
module Memory = Ifp_machine.Memory
module Cache = Ifp_machine.Cache
module Tag = Ifp_isa.Tag
module Bounds = Ifp_isa.Bounds
module Insn = Ifp_isa.Insn
module Trap = Ifp_isa.Trap
module Meta = Ifp_metadata.Meta
module Promote = Ifp_metadata.Promote
module Alloc = Ifp_alloc.Alloc_intf
module Ir = Ifp_compiler.Ir
module Typecheck = Ifp_compiler.Typecheck
module Instrument = Ifp_compiler.Instrument
module Fault = Ifp_faultinject.Fault

(* The public vocabulary (config, variants, outcomes, trace events,
   result) is Rt's, which Vm re-exports; the engine state below is this
   module's own and shadows Rt's. *)
open Rt

(* ------------------------------------------------------------------ *)

type value = VI of int64 | VF of float | VP of int64 * Bounds.t

exception Return_exc of value
exception Break_exc
exception Continue_exc
exception Abort of abort_reason

(* runtime-detected ill-formed IR or guest misuse *)
let abort msg = raise (Abort (Program_error msg))

type gobj = {
  gaddr : int64;
  gsize : int;
  mutable gtagged : int64;
  mutable gbounds : Bounds.t;
}

type func_meta = { has_calls : bool; ptr_regs : int }

type frame = {
  vars : (string, value ref) Hashtbl.t;
  locals : (string, int64 * Ctype.t * int64 ref) Hashtbl.t;
      (* base addr, type, tagged pointer (mutable: set by registration) *)
  instrumented : bool;
}

type state = {
  cfg : config;
  prog : Ir.program;
  tenv : Ctype.tenv;
  mem : Memory.t;
  cache : Cache.t;
  meta : Meta.t option;
  allocator : Alloc.t;
  c : Counters.t;
  funcs : (string, Ir.func) Hashtbl.t;
  fmeta : (string, func_meta) Hashtbl.t;
  globals : (string, gobj) Hashtbl.t;
  layouts : (Ctype.t, Layout.t) Hashtbl.t;
  inj : Fault.t option;
  mutable sp : int64;
  stack_limit : int64;
  mutable depth : int;  (* guest calls active below main *)
  mutable out : string list;
  mutable out_lines : int;
  mutable trace : trace_event list; (* reversed *)
  mutable trace_left : int;
}

(* Rt's output cap, on this module's state *)
let print st line =
  if st.out_lines >= max_output_lines then raise (Abort output_overflow);
  st.out_lines <- st.out_lines + 1;
  st.out <- line :: st.out

let ifp_mode st = st.cfg.variant <> Baseline

let trace st ev =
  if st.trace_left > 0 then begin
    st.trace_left <- st.trace_left - 1;
    st.trace <- ev st :: st.trace
  end

(* ---- cost charging ------------------------------------------------ *)

let budget_check st =
  if st.c.cycles > st.cfg.max_cycles then raise (Abort Budget_exhausted)

let base st n =
  st.c.base_instrs <- st.c.base_instrs + n;
  st.c.cycles <- st.c.cycles + n

let cycles st n = st.c.cycles <- st.c.cycles + n

let charge_ifp st k n =
  Counters.add_ifp st.c k n;
  st.c.cycles <- st.c.cycles + (n * Cost.ifp_cycles k)

let mem_cycles st addr bytes kind =
  let misses = Cache.access_range st.cache addr ~bytes kind in
  st.c.cycles <- st.c.cycles + Cost.mem + (misses * Cost.miss_penalty)

let charge_load st addr bytes =
  st.c.loads <- st.c.loads + 1;
  base st 1;
  mem_cycles st addr bytes Cache.Load

let charge_store st addr bytes =
  st.c.stores <- st.c.stores + 1;
  base st 1;
  mem_cycles st addr bytes Cache.Store

let replay_touches st touches =
  List.iter (fun (addr, bytes) -> mem_cycles st addr bytes Cache.Store) touches

let charge_alloc_cost st (c : Alloc.cost) =
  base st c.instrs;
  List.iter (fun (k, n) -> charge_ifp st k n) c.ifp_instrs;
  replay_touches st c.touches

(* ---- value helpers ------------------------------------------------ *)

let as_int = function
  | VI x -> x
  | VP (w, _) -> w
  | VF f -> Int64.of_float f

let as_float = function VF f -> f | VI x -> Int64.to_float x | VP (w, _) -> Int64.to_float w

let as_ptr = function
  | VP (w, b) -> (w, b)
  | VI w -> (w, Bounds.no_bounds)
  | VF _ -> abort "float used as pointer"

let truth v = if Int64.equal (as_int v) 0L then false else true

let sext v bytes =
  match bytes with
  | 8 -> v
  | n ->
    let shift = 64 - (n * 8) in
    Int64.shift_right (Int64.shift_left v shift) shift

let layout_of st ty =
  match Hashtbl.find_opt st.layouts ty with
  | Some l -> l
  | None ->
    let l = Layout.build st.tenv ty in
    Hashtbl.replace st.layouts ty l;
    l

(* ---- memory access with protection semantics ---------------------- *)

let checked_access st frame ptr bounds ~size ~is_store =
  if ifp_mode st && frame.instrumented then begin
    if st.cfg.temporal then Insn.load_store_poison_check_temporal ptr ~is_store
    else Insn.load_store_poison_check ptr;
    st.c.implicit_checks <- st.c.implicit_checks + 1;
    match bounds with
    | Bounds.No_bounds -> ()
    | Bounds.Bounds { lo; hi } ->
      if not (Bounds.contains bounds ~addr:(Tag.addr ptr) ~size) then
        Trap.raise_trap
          (Trap.Bounds_violation
             { ptr; lo = Int64.of_int lo; hi = Int64.of_int hi; size })
  end

(* fault-injection hook: [None] in every ordinary run, so the only cost
   when off is this match *)
let injected_bounds st w b ~size =
  match st.inj with
  | None -> b
  | Some inj -> Fault.on_access inj ~addr:(Tag.addr w) ~size ~bounds:b

let do_load st frame ty addrv =
  let w, b = as_ptr addrv in
  let bytes = Ctype.sizeof st.tenv ty in
  let b = injected_bounds st w b ~size:bytes in
  checked_access st frame w b ~size:bytes ~is_store:false;
  let a = Tag.addr w in
  charge_load st a bytes;
  match Memory.read_size st.mem a ~bytes with
  | raw -> (
    match ty with
    | Ctype.Ptr _ -> VP (raw, Bounds.no_bounds)
    | Ctype.F64 -> VF (Int64.float_of_bits raw)
    | _ -> VI (sext raw bytes))
  | exception Memory.Fault (_, fa) -> Trap.raise_trap (Trap.Memory_fault fa)

let do_store st frame ty addrv v =
  let w, b = as_ptr addrv in
  let bytes = Ctype.sizeof st.tenv ty in
  let b = injected_bounds st w b ~size:bytes in
  checked_access st frame w b ~size:bytes ~is_store:true;
  let a = Tag.addr w in
  let raw =
    match (ty, v) with
    | Ctype.F64, _ -> Int64.bits_of_float (as_float v)
    | Ctype.Ptr _, VP (pw, pb) ->
      (* demote: the pointer value (tag included) goes to memory; the
         bounds register is dropped. ifpextract refreshes poison bits. *)
      if ifp_mode st && frame.instrumented && pb <> Bounds.No_bounds then begin
        charge_ifp st Insn.Ifpextract 1;
        Insn.ifpextract pw ~bounds:pb
      end
      else pw
    | _, v -> as_int v
  in
  charge_store st a bytes;
  match Memory.write_size st.mem a ~bytes raw with
  | () -> ()
  | exception Memory.Fault (_, fa) -> Trap.raise_trap (Trap.Memory_fault fa)

(* ---- gep ----------------------------------------------------------- *)

(* Memoised subobject-index delta for a gep site: the static constant the
   compiler would bake into the ifpidx immediate. *)
let gep_idx_delta st pointee steps =
  match Typecheck.layout_path st.tenv pointee steps with
  | [] -> 0
  | path -> (
    let layout = layout_of st pointee in
    match Layout.index_of_path layout path with Some d -> d | None -> 0)

let eval_gep st frame pointee basev steps ~eval =
  let w, b = as_ptr basev in
  let addr0 = Tag.addr w in
  let dyn = ref 0 in
  let rec walk ty addr nb leading = function
    | [] -> (addr, nb)
    | Ir.S_field f :: rest ->
      let s = match ty with Ctype.Struct s -> s | _ -> abort "gep: bad field" in
      let off, fty = Ctype.field_offset st.tenv s f in
      let addr' = Int64.add addr (Int64.of_int off) in
      let nb' =
        Bounds.make ~lo:addr' ~hi:(Int64.add addr' (Int64.of_int (Ctype.sizeof st.tenv fty)))
      in
      walk fty addr' (Some nb') false rest
    | Ir.S_index ie :: rest ->
      let k = as_int (eval ie) in
      incr dyn;
      (match ty with
      | Ctype.Array (elt, _) ->
        let esz = Int64.of_int (Ctype.sizeof st.tenv elt) in
        walk elt (Int64.add addr (Int64.mul k esz)) nb false rest
      | _ when leading ->
        let esz = Int64.of_int (Ctype.sizeof st.tenv ty) in
        walk ty (Int64.add addr (Int64.mul k esz)) nb false rest
      | _ -> abort "gep: index into non-array")
  in
  let final_addr, nb = walk pointee addr0 None true steps in
  let delta = Int64.sub final_addr addr0 in
  if ifp_mode st && frame.instrumented then begin
    (* narrow to the last field only when it lies inside the incoming
       bounds: a field outside them keeps them, so [ifpadd] poisons *)
    let out_bounds =
      match (b, nb) with
      | Bounds.Bounds { lo; hi }, Some (Bounds.Bounds n as x)
        when lo <= n.lo && n.hi <= hi ->
        x
      | (Bounds.Bounds _ | Bounds.No_bounds), _ -> b
    in
    (* the muls for dynamic indexes stay ordinary ALU work; the final add
       becomes ifpadd (address + tag update) *)
    if !dyn > 0 then begin
      st.c.base_instrs <- st.c.base_instrs + !dyn;
      cycles st (!dyn * Cost.mul)
    end;
    charge_ifp st Insn.Ifpadd 1;
    let w' = Insn.ifpadd w ~delta ~bounds:out_bounds in
    let idxd = gep_idx_delta st pointee steps in
    let w' =
      if idxd > 0 then begin
        charge_ifp st Insn.Ifpidx 1;
        Insn.ifpidx w' idxd
      end
      else w'
    in
    if not (Bounds.equal out_bounds b) then charge_ifp st Insn.Ifpbnd 1;
    VP (w', out_bounds)
  end
  else begin
    if !dyn > 0 then begin
      st.c.base_instrs <- st.c.base_instrs + (!dyn * 2);
      cycles st (!dyn * (Cost.mul + Cost.alu))
    end
    else base st 0;
    VP (Int64.add w delta, Bounds.no_bounds)
  end

(* ---- promote -------------------------------------------------------- *)

let eval_promote st v =
  let w, b = as_ptr v in
  let w = match st.inj with Some inj -> Fault.on_promote inj w | None -> w in
  match st.cfg.variant with
  | Baseline -> v
  | Ifp_no_promote ->
    charge_ifp st Insn.Promote 1;
    VP (w, Bounds.no_bounds)
  | Ifp ->
    charge_ifp st Insn.Promote 1;
    ignore b;
    (match Tag.subobj_index w with
    | Some i when i > 0 -> st.c.promotes_subobj <- st.c.promotes_subobj + 1
    | Some _ | None -> ());
    let meta = match st.meta with Some m -> m | None -> assert false in
    let r = Promote.run ~narrow:st.cfg.narrowing meta w in
    List.iter
      (fun { Meta.addr; bytes } -> mem_cycles st addr bytes Cache.Load)
      r.fetches;
    cycles st
      ((r.walk_elems * Cost.walk_per_elem)
      + (r.divisions * Cost.div)
      + (r.mac_checks * Cost.mac_check));
    trace st (fun _ ->
        T_promote
          {
            ptr = w;
            outcome =
              (match r.Promote.outcome with
              | Promote.Bypass_poisoned -> "bypass:poisoned"
              | Promote.Bypass_null -> "bypass:null"
              | Promote.Bypass_legacy -> "bypass:legacy"
              | Promote.Metadata_invalid m -> "invalid:" ^ m
              | Promote.Temporal_stale { freed; gen_ptr; gen_meta } ->
                Printf.sprintf "temporal-stale:%s:g%d/g%d"
                  (if freed then "freed" else "recycled")
                  gen_ptr gen_meta
              | Promote.Retrieved Promote.No_subobject -> "retrieved"
              | Promote.Retrieved Promote.Narrowed -> "retrieved:narrowed"
              | Promote.Retrieved (Promote.Narrow_failed m) ->
                "retrieved:narrow-failed:" ^ m);
            bounds = Format.asprintf "%a" Bounds.pp r.Promote.bounds;
          });
    (* Adversarial mode: with a fault injector armed, an invalid-metadata
       promote traps architecturally (the paper's §3.3 MAC-mismatch trap)
       instead of deferring detection to the poisoned dereference — this
       is the configuration whose trap paths the fault campaign measures.
       Ordinary runs keep the deferred-poison semantics unchanged. *)
    (match (r.outcome, st.inj) with
    | Promote.Metadata_invalid reason, Some _ ->
      st.c.promotes_invalid_meta <- st.c.promotes_invalid_meta + 1;
      if String.equal reason "MAC mismatch" then
        Trap.raise_trap (Trap.Mac_mismatch { ptr = w })
      else Trap.raise_trap (Trap.Invalid_metadata { ptr = w; reason })
    | Promote.Temporal_stale _, Some _ ->
      (* armed temporal promote traps immediately instead of deferring
         to the poisoned dereference — same escalation as the MAC path *)
      st.c.promotes_invalid_meta <- st.c.promotes_invalid_meta + 1;
      Trap.raise_trap (Trap.Use_after_free { ptr = w })
    | _ -> ());
    (match r.outcome with
    | Promote.Bypass_poisoned -> st.c.promotes_poisoned <- st.c.promotes_poisoned + 1
    | Promote.Bypass_null -> st.c.promotes_null <- st.c.promotes_null + 1
    | Promote.Bypass_legacy -> st.c.promotes_legacy <- st.c.promotes_legacy + 1
    | Promote.Metadata_invalid _ | Promote.Temporal_stale _ ->
      st.c.promotes_invalid_meta <- st.c.promotes_invalid_meta + 1
    | Promote.Retrieved status ->
      st.c.promotes_valid <- st.c.promotes_valid + 1;
      (match status with
      | Promote.Narrowed -> st.c.narrows_ok <- st.c.narrows_ok + 1
      | Promote.Narrow_failed _ -> st.c.narrows_failed <- st.c.narrows_failed + 1
      | Promote.No_subobject -> ()));
    VP (r.ptr, r.bounds)

(* ---- local object registration -------------------------------------- *)

let register_local st frame name =
  match Hashtbl.find_opt frame.locals name with
  | None -> abort ("register of unknown local " ^ name)
  | Some (addr, ty, tagged) -> (
    let meta = match st.meta with Some m -> m | None -> assert false in
    let size = Ctype.sizeof st.tenv ty in
    let layout_ptr = Meta.intern_layout meta st.tenv ty in
    let has_layout = not (Int64.equal layout_ptr 0L) in
    st.c.local_objs <- st.c.local_objs + 1;
    if has_layout then st.c.local_objs_layout <- st.c.local_objs_layout + 1;
    trace st (fun _ -> T_register { what = "local:" ^ name; ptr = addr; size });
    if Meta.Local_offset.fits ~size then begin
      let p = Meta.Local_offset.register meta ~base:addr ~size ~layout_ptr in
      tagged := p;
      base st 6;
      charge_ifp st Insn.Ifpmac 1;
      charge_ifp st Insn.Ifpmd 1;
      replay_touches st [ (Tag.metadata_addr_local_offset p, 16) ]
    end
    else
      match Meta.Global_table.register meta ~base:addr ~size ~layout_ptr with
      | Some p ->
        tagged := p;
        base st 50;
        charge_ifp st Insn.Ifpmd 1
      | None ->
        tagged := addr;
        base st 20)

let deregister_local st frame name =
  match Hashtbl.find_opt frame.locals name with
  | None -> ()
  | Some (_, _, tagged) -> (
    let meta = match st.meta with Some m -> m | None -> assert false in
    let p = !tagged in
    trace st (fun _ -> T_deregister { what = "local:" ^ name; ptr = p });
    match Tag.scheme p with
    | Tag.Local_offset ->
      if st.cfg.temporal then begin
        (* free-epoch transition: validate, bump generation, re-MAC.
           The record stays in place; reuse of the stack slot reads the
           prior generation back at register time. *)
        ignore (Meta.Local_offset.deregister_temporal meta p);
        base st 6;
        charge_ifp st Insn.Ifpmac 1
      end
      else begin
        Meta.Local_offset.deregister meta p;
        base st 4
      end;
      replay_touches st [ (Tag.metadata_addr_local_offset p, 16) ]
    | Tag.Global_table ->
      if st.cfg.temporal then
        ignore (Meta.Global_table.deregister_temporal meta p)
      else Meta.Global_table.deregister meta p;
      base st 30
    | Tag.Legacy | Tag.Subheap -> ())

(* ---- the interpreter ------------------------------------------------ *)

let rec eval st frame (e : Ir.expr) : value =
  match e with
  | Int x -> VI x
  | Float f -> VF f
  | Var name -> (
    match Hashtbl.find_opt frame.vars name with
    | Some r -> !r
    | None -> abort ("unbound variable " ^ name))
  | Binop (Ir.LAnd, a, b) ->
    base st 1;
    if not (truth (eval st frame a)) then VI 0L
    else VI (if truth (eval st frame b) then 1L else 0L)
  | Binop (Ir.LOr, a, b) ->
    base st 1;
    if truth (eval st frame a) then VI 1L
    else VI (if truth (eval st frame b) then 1L else 0L)
  | Binop (op, a, b) -> eval_binop st op (eval st frame a) (eval st frame b)
  | Unop (op, a) -> eval_unop st op (eval st frame a)
  | Load (ty, addr) -> do_load st frame ty (eval st frame addr)
  | Addr_local name -> (
    base st 1;
    match Hashtbl.find_opt frame.locals name with
    | None -> abort ("address of unknown local " ^ name)
    | Some (addr, ty, tagged) ->
      let size = Ctype.sizeof st.tenv ty in
      if ifp_mode st && frame.instrumented then begin
        charge_ifp st Insn.Ifpbnd 1;
        VP (!tagged, Bounds.of_base_size addr size)
      end
      else VP (addr, Bounds.no_bounds))
  | Addr_global g -> (
    match Hashtbl.find_opt st.globals g with
    | None -> abort ("unknown global " ^ g)
    | Some go ->
      if ifp_mode st && frame.instrumented then begin
        (* the "getptr" helper call of §4.2.2 *)
        base st 5;
        charge_ifp st Insn.Ifpbnd 1;
        VP (go.gtagged, go.gbounds)
      end
      else begin
        base st 1;
        VP (go.gaddr, Bounds.no_bounds)
      end)
  | Load_global g -> (
    match Hashtbl.find_opt st.globals g with
    | None -> abort ("unknown global " ^ g)
    | Some go ->
      (* by-name access: untagged, uninstrumented *)
      let gty =
        match Ir.find_global st.prog g with
        | Some { gty; _ } -> gty
        | None -> assert false
      in
      let bytes = Ctype.sizeof st.tenv gty in
      charge_load st go.gaddr bytes;
      let raw = Memory.read_size st.mem go.gaddr ~bytes in
      (match gty with
      | Ctype.Ptr _ -> VP (raw, Bounds.no_bounds)
      | Ctype.F64 -> VF (Int64.float_of_bits raw)
      | _ -> VI (sext raw bytes)))
  | Gep (pointee, bse, steps) ->
    eval_gep st frame pointee (eval st frame bse) steps ~eval:(eval st frame)
  | Call (fn, args) -> eval_call st frame fn args
  | Malloc (ty, n) ->
    let count = Int64.to_int (as_int (eval st frame n)) in
    do_malloc st frame ~size:(Ifp_util.Bits.imax 1 count * Ctype.sizeof st.tenv ty) ~cty:(Some ty)
  | Malloc_bytes n ->
    let bytes = Int64.to_int (as_int (eval st frame n)) in
    do_malloc st frame ~size:(Ifp_util.Bits.imax 1 bytes) ~cty:None
  | Malloc_sized (ty, n) ->
    let bytes = Int64.to_int (as_int (eval st frame n)) in
    do_malloc st frame ~size:(Ifp_util.Bits.imax 1 bytes) ~cty:(Some ty)
  | Cast (ty, a) -> (
    let v = eval st frame a in
    match (ty, v) with
    | Ctype.Ptr _, VI w -> VP (w, Bounds.no_bounds)
    | Ctype.Ptr _, (VP _ as p) -> p
    | Ctype.Ptr _, VF _ -> abort "float to pointer cast"
    | Ctype.F64, v ->
      base st 1;
      VF (as_float v)
    | _, VF f ->
      base st 1;
      VI (Int64.of_float f)
    | _, v -> VI (sext (as_int v) (Ifp_util.Bits.imax 1 (Ctype.sizeof st.tenv ty))))
  | Ifp_promote e -> eval_promote st (eval st frame e)

and eval_binop st op a b =
  let int_op f =
    base st 1;
    VI (f (as_int a) (as_int b))
  in
  let cmp f =
    base st 1;
    let x, y =
      match (a, b) with
      | VP (wa, _), VP (wb, _) -> (Tag.addr wa, Tag.addr wb)
      | _ -> (as_int a, as_int b)
    in
    VI (if f (Int64.compare x y) 0 then 1L else 0L)
  in
  let fop f =
    base st 1;
    cycles st (Cost.fp - 1);
    VF (f (as_float a) (as_float b))
  in
  let fcmp f =
    base st 1;
    cycles st (Cost.fp - 1);
    VI (if f (as_float a) (as_float b) then 1L else 0L)
  in
  match op with
  | Ir.Add -> int_op Int64.add
  | Ir.Sub -> int_op Int64.sub
  | Ir.Mul ->
    cycles st (Cost.mul - 1);
    int_op Int64.mul
  | Ir.Div ->
    cycles st (Cost.div - 1);
    let d = as_int b in
    if Int64.equal d 0L then abort "division by zero";
    int_op Int64.div
  | Ir.Rem ->
    cycles st (Cost.div - 1);
    let d = as_int b in
    if Int64.equal d 0L then abort "remainder by zero";
    int_op Int64.rem
  | Ir.LAnd | Ir.LOr -> assert false (* short-circuit, handled in eval *)
  | Ir.BAnd -> int_op Int64.logand
  | Ir.BOr -> int_op Int64.logor
  | Ir.BXor -> int_op Int64.logxor
  | Ir.Shl -> int_op (fun x y -> Int64.shift_left x (Int64.to_int y land 63))
  | Ir.Shr -> int_op (fun x y -> Int64.shift_right_logical x (Int64.to_int y land 63))
  | Ir.Eq -> cmp ( = )
  | Ir.Ne -> cmp ( <> )
  | Ir.Lt -> cmp ( < )
  | Ir.Le -> cmp ( <= )
  | Ir.Gt -> cmp ( > )
  | Ir.Ge -> cmp ( >= )
  | Ir.FAdd -> fop ( +. )
  | Ir.FSub -> fop ( -. )
  | Ir.FMul -> fop ( *. )
  | Ir.FDiv -> fop ( /. )
  | Ir.FEq -> fcmp ( = )
  | Ir.FLt -> fcmp ( < )
  | Ir.FLe -> fcmp ( <= )

and eval_unop st op a =
  base st 1;
  match op with
  | Ir.Neg -> VI (Int64.neg (as_int a))
  | Ir.BNot -> VI (Int64.lognot (as_int a))
  | Ir.LNot -> VI (if Int64.equal (as_int a) 0L then 1L else 0L)
  | Ir.FNeg ->
    cycles st (Cost.fp - 1);
    VF (-.as_float a)
  | Ir.I2F ->
    cycles st (Cost.fp - 1);
    VF (Int64.to_float (as_int a))
  | Ir.F2I ->
    cycles st (Cost.fp - 1);
    VI (Int64.of_float (as_float a))

and do_malloc st frame ~size ~cty =
  let cty_for_alloc = if ifp_mode st && frame.instrumented then cty else None in
  let ptr, c = st.allocator.malloc ~size ~cty:cty_for_alloc in
  charge_alloc_cost st c;
  st.c.heap_objs <- st.c.heap_objs + 1;
  (match cty_for_alloc with
  | Some ty when Layout.length (layout_of st ty) > 1 ->
    st.c.heap_objs_layout <- st.c.heap_objs_layout + 1
  | Some _ | None -> ());
  if ifp_mode st && frame.instrumented then begin
    charge_ifp st Insn.Ifpbnd 1;
    VP (ptr, Bounds.of_base_size (Tag.addr ptr) size)
  end
  else VP (ptr, Bounds.no_bounds)

and eval_call st frame fn args =
  let argv = List.map (eval st frame) args in
  match fn with
  | "__print_i64" ->
    base st 3;
    (match argv with
    | [ v ] -> print st (Int64.to_string (as_int v))
    | _ -> ());
    VI 0L
  | "__print_f64" ->
    base st 3;
    (match argv with
    | [ v ] -> print st (Printf.sprintf "%.6g" (as_float v))
    | _ -> ());
    VI 0L
  | "__abort" -> abort "program called __abort"
  | _ -> (
    match Hashtbl.find_opt st.funcs fn with
    | None -> abort ("call to unknown function " ^ fn)
    | Some f ->
      if st.depth >= Memmap.max_call_depth then raise (Abort Stack_overflow);
      st.depth <- st.depth + 1;
      budget_check st;
      (* call + ret + prologue/epilogue (ra/s-reg save, sp adjust) *)
      base st (6 + List.length args);
      cycles st (Cost.call - 1);
      let fm = Hashtbl.find st.fmeta fn in
      let spills =
        if ifp_mode st && f.instrumented && fm.has_calls then Ifp_util.Bits.imin 4 fm.ptr_regs
        else 0
      in
      if spills > 0 then charge_ifp st Insn.Stbnd spills;
      let callee_frame =
        {
          vars = Hashtbl.create 16;
          locals = Hashtbl.create 4;
          instrumented = f.instrumented;
        }
      in
      (* extended calling convention: bounds travel with pointer args,
         unless the callee is legacy code *)
      List.iter2
        (fun (pname, _) v ->
          let v = if f.instrumented then v else strip_bounds v in
          Hashtbl.replace callee_frame.vars pname (ref v))
        f.params argv;
      let saved_sp = st.sp in
      let ret =
        match List.iter (exec st callee_frame) f.body with
        | () -> VI 0L
        | exception Return_exc v -> v
      in
      st.sp <- saved_sp;
      st.depth <- st.depth - 1;
      if spills > 0 then charge_ifp st Insn.Ldbnd spills;
      (* implicit bounds clearing on return from legacy code (§4.1.2) *)
      if f.instrumented then ret else strip_bounds ret)

and strip_bounds = function
  | VP (w, _) -> VP (w, Bounds.no_bounds)
  | v -> v

and exec st frame (s : Ir.stmt) : unit =
  match s with
  | Let (name, ty, e) ->
    let v = coerce st ty (eval st frame e) in
    base st 1;
    Hashtbl.replace frame.vars name (ref v)
  | Assign (name, e) -> (
    let v = eval st frame e in
    base st 1;
    match Hashtbl.find_opt frame.vars name with
    | Some r -> r := v
    | None -> abort ("assign to unbound variable " ^ name))
  | Decl_local (name, ty) ->
    if not (Hashtbl.mem frame.locals name) then begin
      let size = Ctype.sizeof st.tenv ty in
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
      Hashtbl.replace frame.locals name (addr, ty, ref addr)
    end
  | Store (ty, addr, v) ->
    let a = eval st frame addr in
    let value = eval st frame v in
    do_store st frame ty a value
  | Store_global (g, e) -> (
    let v = eval st frame e in
    match Hashtbl.find_opt st.globals g with
    | None -> abort ("unknown global " ^ g)
    | Some go ->
      let gty =
        match Ir.find_global st.prog g with
        | Some { gty; _ } -> gty
        | None -> assert false
      in
      let bytes = Ctype.sizeof st.tenv gty in
      charge_store st go.gaddr bytes;
      let raw =
        match (gty, v) with
        | Ctype.F64, _ -> Int64.bits_of_float (as_float v)
        | Ctype.Ptr _, VP (pw, pb) ->
          if ifp_mode st && frame.instrumented && pb <> Bounds.No_bounds then begin
            charge_ifp st Insn.Ifpextract 1;
            Insn.ifpextract pw ~bounds:pb
          end
          else pw
        | _, v -> as_int v
      in
      Memory.write_size st.mem go.gaddr ~bytes raw)
  | If (c, t, e) ->
    base st 2 (* compare + branch *);
    if truth (eval st frame c) then List.iter (exec st frame) t
    else List.iter (exec st frame) e
  | While (c, body) ->
    let rec loop () =
      budget_check st;
      base st 2 (* compare + branch *);
      if truth (eval st frame c) then begin
        (match List.iter (exec st frame) body with
        | () -> ()
        | exception Continue_exc -> ());
        loop ()
      end
    in
    (try loop () with Break_exc -> ())
  | Return None -> raise (Return_exc (VI 0L))
  | Return (Some e) -> raise (Return_exc (eval st frame e))
  | Expr e -> ignore (eval st frame e)
  | Free e ->
    let w, _ = as_ptr (eval st frame e) in
    let c = st.allocator.free w in
    charge_alloc_cost st c
  | Break -> raise Break_exc
  | Continue -> raise Continue_exc
  | Ifp_register_local name -> register_local st frame name
  | Ifp_deregister_local name -> deregister_local st frame name

and coerce st ty v =
  match ty with
  | Ctype.I8 -> VI (sext (as_int v) 1)
  | Ctype.I16 -> VI (sext (as_int v) 2)
  | Ctype.I32 -> VI (sext (as_int v) 4)
  | Ctype.I64 -> VI (as_int v)
  | Ctype.F64 -> VF (as_float v)
  | Ctype.Ptr _ -> (
    match v with VP _ -> v | VI w -> VP (w, Bounds.no_bounds) | VF _ -> v)
  | Ctype.Void | Ctype.Struct _ | Ctype.Array _ ->
    ignore st;
    v

(* ---- program setup --------------------------------------------------- *)

let func_meta_of (f : Ir.func) =
  let has_calls = ref false in
  let ptr_regs = ref 0 in
  List.iter
    (fun (_, ty) -> match ty with Ctype.Ptr _ -> incr ptr_regs | _ -> ())
    f.params;
  let rec scan_expr (e : Ir.expr) =
    match e with
    | Call _ -> has_calls := true
    | Int _ | Float _ | Var _ | Addr_local _ | Addr_global _ | Load_global _ -> ()
    | Binop (_, a, b) ->
      scan_expr a;
      scan_expr b
    | Unop (_, a) | Cast (_, a) | Ifp_promote a | Load (_, a) | Malloc (_, a)
    | Malloc_bytes a | Malloc_sized (_, a) ->
      scan_expr a
    | Gep (_, b, steps) ->
      scan_expr b;
      List.iter
        (function Ir.S_index ie -> scan_expr ie | Ir.S_field _ -> ())
        steps
  in
  let rec scan_stmt (s : Ir.stmt) =
    match s with
    | Let (_, Ctype.Ptr _, e) ->
      incr ptr_regs;
      scan_expr e
    | Let (_, _, e) | Assign (_, e) | Store_global (_, e) | Expr e | Free e ->
      scan_expr e
    | Store (_, a, e) ->
      scan_expr a;
      scan_expr e
    | If (c, t, e) ->
      scan_expr c;
      List.iter scan_stmt t;
      List.iter scan_stmt e
    | While (c, b) ->
      scan_expr c;
      List.iter scan_stmt b
    | Return (Some e) -> scan_expr e
    | Decl_local _ | Return None | Break | Continue | Ifp_register_local _
    | Ifp_deregister_local _ ->
      ()
  in
  List.iter scan_stmt f.body;
  { has_calls = !has_calls; ptr_regs = !ptr_regs }

let setup_globals st =
  let bump = ref Memmap.globals_base in
  List.iter
    (fun (g : Ir.global) ->
      let size = Ifp_util.Bits.imax 1 (Ctype.sizeof st.tenv g.gty) in
      let footprint =
        if ifp_mode st then Meta.Local_offset.footprint ~size
        else Ifp_util.Bits.align_up size 16
      in
      let addr = Ifp_util.Bits.align_up64 !bump 16 in
      bump := Int64.add addr (Int64.of_int footprint);
      if
        Int64.compare !bump
          (Int64.add Memmap.globals_base (Int64.of_int Memmap.globals_size))
        > 0
      then abort "globals region exhausted";
      let go =
        { gaddr = addr; gsize = size; gtagged = addr; gbounds = Bounds.no_bounds }
      in
      (if ifp_mode st && g.registered then
         match st.meta with
         | None -> ()
         | Some meta ->
           let layout_ptr = Meta.intern_layout meta st.tenv g.gty in
           let has_layout = not (Int64.equal layout_ptr 0L) in
           st.c.global_objs <- st.c.global_objs + 1;
           if has_layout then
             st.c.global_objs_layout <- st.c.global_objs_layout + 1;
           base st 20;
           if Meta.Local_offset.fits ~size then begin
             go.gtagged <-
               Meta.Local_offset.register meta ~base:addr ~size ~layout_ptr;
             charge_ifp st Insn.Ifpmac 1
           end
           else
             match Meta.Global_table.register meta ~base:addr ~size ~layout_ptr with
             | Some p -> go.gtagged <- p
             | None -> ());
      go.gbounds <- Bounds.of_base_size addr size;
      Hashtbl.replace st.globals g.gname go)
    st.prog.globals

let run ?(config = default_config) (raw_prog : Ir.program) =
  Typecheck.check_program raw_prog;
  let prog, report =
    match config.variant with
    | Baseline -> (raw_prog, None)
    | Ifp | Ifp_no_promote ->
      let p, r =
        Instrument.run
          ~config:{ Instrument.infer_alloc_types = config.infer_alloc_types }
          raw_prog
      in
      (p, Some r)
  in
  let mem = Memory.create () in
  let cache = Cache.create () in
  (* map fixed regions *)
  Memory.map mem ~base:Memmap.globals_base ~size:Memmap.globals_size;
  Memory.map mem ~base:Memmap.layout_region_base ~size:Memmap.layout_region_size;
  Memory.map mem ~base:Memmap.global_table_base
    ~size:(Memmap.global_table_entries * 16);
  Memory.map mem
    ~base:(Int64.sub Memmap.stack_top (Int64.of_int Memmap.stack_size))
    ~size:Memmap.stack_size;
  let rng = Ifp_util.Prng.create config.seed in
  let meta =
    match config.variant with
    | Baseline -> None
    | Ifp | Ifp_no_promote ->
      Some
        (* the fault injector is the live registry's only reader *)
        (Meta.create ~temporal:config.temporal
           ~registry:(Option.is_some config.fault_plan) ~memory:mem
           ~mac_key:(Ifp_metadata.Mac.fresh_key rng)
           ~layout_region:(Memmap.layout_region_base, Memmap.layout_region_size)
           ~global_table:(Memmap.global_table_base, Memmap.global_table_entries)
           ())
  in
  let allocator =
    match (config.variant, config.alloc) with
    | Baseline, _ | _, Alloc_baseline ->
      Ifp_alloc.Baseline.create ~memory:mem ~base:Memmap.heap_base
        ~size:(1 lsl Memmap.heap_size_log2)
    | _, Alloc_wrapped ->
      let base_alloc =
        Ifp_alloc.Baseline.create ~memory:mem ~base:Memmap.heap_base
          ~size:(1 lsl Memmap.heap_size_log2)
      in
      let meta = Option.get meta in
      Ifp_alloc.Wrapped.create ~meta ~tenv:prog.tenv ~base_alloc
    | _, Alloc_subheap ->
      let meta = Option.get meta in
      Ifp_alloc.Subheap_alloc.create ~meta ~tenv:prog.tenv ~memory:mem
        ~base:Memmap.heap_base ~size_log2:Memmap.heap_size_log2
    | _, Alloc_mixed ->
      (* split the heap: buddy arena in the lower half (naturally aligned
         to its size), baseline/wrapped heap in the upper half *)
      let meta = Option.get meta in
      let half_log2 = Memmap.heap_size_log2 - 1 in
      let subheap =
        Ifp_alloc.Subheap_alloc.create ~meta ~tenv:prog.tenv ~memory:mem
          ~base:Memmap.heap_base ~size_log2:half_log2
      in
      let base_alloc =
        Ifp_alloc.Baseline.create ~memory:mem
          ~base:(Int64.add Memmap.heap_base (Int64.of_int (1 lsl half_log2)))
          ~size:(1 lsl half_log2)
      in
      let wrapped =
        Ifp_alloc.Wrapped.create ~meta ~tenv:prog.tenv ~base_alloc
      in
      Ifp_alloc.Mixed.create ~subheap ~wrapped
  in
  let inj =
    Option.map
      (fun plan -> Fault.create plan ~mem ~heap_base:Memmap.heap_base)
      config.fault_plan
  in
  (match (inj, meta) with
  | Some i, Some m -> Fault.attach_meta i m
  | _ -> ());
  let st =
    {
      cfg = config;
      prog;
      tenv = prog.tenv;
      mem;
      cache;
      meta;
      allocator;
      inj;
      c = Counters.create ();
      funcs = Hashtbl.create 64;
      fmeta = Hashtbl.create 64;
      globals = Hashtbl.create 16;
      layouts = Hashtbl.create 32;
      sp = Memmap.stack_top;
      stack_limit = Int64.sub Memmap.stack_top (Int64.of_int Memmap.stack_size);
      depth = 0;
      out = [];
      out_lines = 0;
      trace = [];
      trace_left = config.trace_limit;
    }
  in
  List.iter
    (fun (f : Ir.func) ->
      Hashtbl.replace st.funcs f.fname f;
      Hashtbl.replace st.fmeta f.fname (func_meta_of f))
    prog.funcs;
  let outcome =
    match setup_globals st with
    | () -> (
      match Hashtbl.find_opt st.funcs "main" with
      | None -> Aborted (Program_error "no main function")
      | Some mainf -> (
        let frame =
          {
            vars = Hashtbl.create 16;
            locals = Hashtbl.create 4;
            instrumented = mainf.instrumented;
          }
        in
        match List.iter (exec st frame) mainf.body with
        | () -> Finished 0L
        | exception Return_exc v -> Finished (as_int v)
        | exception Trap.Trap t ->
          st.trace_left <- Ifp_util.Bits.imax st.trace_left 1;
          trace st (fun _ -> T_trap (Trap.to_string t));
          Trapped t
        | exception Abort msg -> Aborted msg
        | exception Memory.Fault (_, a) -> Trapped (Trap.Memory_fault a)
        | exception Alloc.Out_of_memory msg -> Aborted (Out_of_memory msg)
        | exception Alloc.Double_free p ->
          Aborted
            (Program_error
               (Printf.sprintf "double free detected by allocator (0x%Lx)" p))))
    | exception Abort msg -> Aborted msg
  in
  let alloc_stats = st.allocator.stats () in
  let layout_bytes =
    match meta with Some m -> Meta.layout_bytes_used m | None -> 0
  in
  {
    outcome;
    counters = st.c;
    alloc_stats;
    alloc_extra = st.allocator.extra_stats ();
    cache_accesses = Cache.accesses cache;
    cache_misses = Cache.misses cache;
    mem_footprint = alloc_stats.footprint_bytes + layout_bytes;
    output = List.rev st.out;
    instrument_report = report;
    trace = List.rev st.trace;
    fault_injections =
      (match inj with Some i -> Fault.injections i | None -> []);
  }
