(* The closure compiler: lowers {!Ifp_compiler.Resolve} output to trees
   of OCaml closures, one closure per node with successors pre-linked,
   so straight-line guest code runs with zero dispatch — every [match]
   the interpreter performs per execution is performed here once per
   program.

   Correctness contract: each compiled closure charges costs and bumps
   counters in {e exactly} the order {!Vm_slot}'s [eval]/[eval_i]/[exec]
   arms do, so the engine stays bit-identical to [Vm_slot] and [Vm_ref] on
   outcome, every counter, traces and output. Three kinds of static
   specialization are layered on top, none of which may change
   observable behaviour:

   - {b mode splitting}: [ifp_mode && instrumented] is constant per
     (config, function), so checked access, gep finish, address-of and
     declaration paths compile to their taken branch only;
   - {b one staged access path}: every load and store site compiles
     through [compile_access], which joins an address producer (a fused
     gep word, or any boxed value), the check chosen per function at
     compile time (unchecked, the open-coded IFP check, or — with a
     fault injector armed — the out-of-line check that runs the
     injector's access hook first) and a staged load or store tail.
     Armed runs execute the same fused closures as every other run and
     differ only in that check. Every gep of field and index steps
     fuses, whatever its length ([a[i].f], [a[i].arr[j]]), into a
     closure that keeps the address word unboxed, replicating the exact
     charge order of the unfused pair; a boxed gep value is the same
     address closure plus one [VP];
   - {b streamed promote charges}: promote runs the list-free core
     ([Promote.promote]), whose fetches stream into a per-run buffer
     and are charged through [Cache.access_line] once it returns.

   Compilation happens per run (inside [run_with]'s [main_body]), after
   globals setup, with the state — config, fault injector, globals —
   fully known; closure capture is the specialization mechanism. *)

open Rt

type vcode = frame -> value
type icode = frame -> int64
type ucode = frame -> unit

type env = {
  st : state;
  fbodies : ucode array;  (* compiled bodies, parallel to rp.funcs *)
  mutable gb : Bounds.t;
      (* scratch: bounds produced by a fused gep address computation;
         consumed immediately by the fused access tail, before any
         other fused site can run *)
  pcharge : state -> unit;  (* staged charge of a promote's fetches *)
}

(* What every load and store of a function does to its address word
   before the access, fixed when the function compiles. *)
type check =
  | Unchecked  (* baseline, or an uninstrumented function: strip the tag *)
  | Checked  (* instrumented: the open-coded [check_instr] *)
  | Armed of (is_store:bool -> size:int -> int64 -> Bounds.t -> int64)
      (* a fault injector is armed: [armed_check], out of line *)

(* per-function compile context *)
type ctx = { env : env; instr : bool; check : check }

let nop_u : ucode = fun _ -> ()

(* ---- call helper ---------------------------------------------------- *)

(* [charge_ifp] with the kind fixed at compile time: the counter slot
   and cycle cost become constants captured in the closure, so each
   charge is two in-place adds with no per-event kind dispatch. *)
let stage_charge_ifp st k : unit -> unit =
  let ix = Counters.kind_index k and cyc = Cost.ifp_cycles k in
  let cc = st.c in
  fun () ->
    cc.ifp.(ix) <- cc.ifp.(ix) + 1;
    cc.cycles <- cc.cycles + cyc

(* the closure-engine twin of Vm_slot.call_run *)
let run_body st (f : R.func) (body : ucode) callee_frame spills =
  let saved_sp = st.sp in
  let ret =
    match body callee_frame with
    | () -> VI 0L
    | exception Return_exc v -> v
  in
  st.sp <- saved_sp;
  st.depth <- st.depth - 1;
  if spills > 0 then charge_ifp st Insn.Ldbnd spills;
  if f.instrumented then ret else strip_bounds ret

(* ---- fused access tails --------------------------------------------- *)

(* These replicate, inline and specialized, the interpreter's checked
   load and store on an address that need not be a boxed value: [w'] is
   the (possibly tagged) pointer word, [ob] its bounds register.

   The bit-level pieces — the 44-bit address mask of [Tag.addr], the
   poison-bit test of [Insn.load_store_poison_check], the range test of
   [Bounds.contains] — are open-coded copies: the poison bits take one
   shift-and-mask test on the fast path (the library check resolves the
   trap cause on the cold, poisoned path) and the range test runs on the
   already-masked immediate address. The differential suite pins them
   against the interpreter, which still goes through [lib/isa]. *)

let addr_mask = Tag.addr_mask (* 44-bit virtual address *)
let addr_mask_i = Int64.to_int addr_mask

(* Returns the 44-bit address so the access tail does not re-mask: the
   check is the only consumer of the tagged word, every caller feeds the
   result straight into a [stage_load]/[stage_store] closure. *)
let[@inline] check_instr st w' ob ~is_store ~size : int64 =
  (* poison bits are 62-63; nonzero = Oob, Invalid or Freed. The library
     check resolves the temporal-vs-spatial trap cause on the (cold)
     poisoned path. *)
  (if Int64.to_int (Int64.shift_right_logical w' 62) land 3 <> 0 then
     if st.cfg.temporal then Insn.load_store_poison_check_temporal w' ~is_store
     else Trap.raise_trap (Trap.Poisoned_dereference w'));
  st.c.implicit_checks <- st.c.implicit_checks + 1;
  let a = Int64.logand w' addr_mask in
  (match ob with
  | Bounds.No_bounds -> ()
  | Bounds.Bounds { lo; hi } ->
    let ai = Int64.to_int a in
    if not (lo <= ai && ai + size <= hi) then
      Trap.raise_trap
        (Trap.Bounds_violation
           { ptr = w'; lo = Int64.of_int lo; hi = Int64.of_int hi; size }));
  a

(* The check of a run with a fault injector armed: the injector's access
   hook sees the address and may corrupt the bounds register (or smash
   memory) before the access is checked, in uninstrumented code too.
   Out of line, so only armed runs pay for it. *)
let armed_check st inj ~instr ~is_store ~size w' ob =
  let ob = Fault.on_access inj ~addr:(Int64.logand w' addr_mask) ~size ~bounds:ob in
  if instr then check_instr st w' ob ~is_store ~size else Int64.logand w' addr_mask

(* Staged twin of [Rt.charge_fetches]: a buffered promote fetch that
   stays within one line goes through [Cache.access_line]; one that
   crosses a line falls back to [Cache.access_range]. The buffer holds
   the addresses' low 63 bits, of which the line number reads 48. *)
let stage_fetch_charge st : state -> unit =
  let cc = st.c and cache = st.cache and b = st.pbuf in
  let lsh = Cache.line_shift cache in
  let lbytes = 1 lsl lsh in
  let lmask = lbytes - 1 in
  let cyc = Cost.mem and pen = Cost.miss_penalty in
  fun _ ->
    for i = 0 to b.fb_n - 1 do
      let a = Array.unsafe_get b.fb_addr i in
      let bytes = Array.unsafe_get b.fb_bytes i in
      let misses =
        if bytes > 0 && (a land lmask) + bytes <= lbytes then
          if Cache.access_line cache ((a land Bounds.mask48) lsr lsh) then 0 else 1
        else Cache.access_range cache (Int64.of_int a) ~bytes Cache.Load
      in
      cc.cycles <- cc.cycles + cyc + (misses * pen)
    done

let page_shift = Memory.page_shift
let page_off_mask = Memory.page_size - 1
let pcache_mask = Memory.pcache_slots - 1

(* Staged load tail, one closure per site: the static [bytes] resolves
   the size dispatch and sign-extension shape now, and the counter
   arithmetic of [charge_load] ([loads]/[base]/[mem_cycles]) is
   open-coded — the cycle adds are coalesced into one store, which is
   unobservable because nothing between them can trap. Takes the 48-bit
   address, already masked by [check_instr] (or by the call site on
   uninstrumented paths), so the tag strip happens once per access; the
   masked address fits 48 bits, so the whole line/page computation runs
   on immediate ints. The page-cache probe of [Memory.get_page] is
   open-coded and the line probe is the inlined [Cache.access_line],
   for the common case (access within one page/line, page-cache hit);
   anything else falls back to the library accessors, which keep the
   caches warm. *)
let stage_load st bytes : int64 -> int64 =
  let cc = st.c and cache = st.cache and mem = st.mem in
  let cyc = 1 + Cost.mem in
  let pen = Cost.miss_penalty in
  let lsh = Cache.line_shift cache in
  let lbytes = 1 lsl lsh in
  let lmask = lbytes - 1 in
  let ppno = mem.Memory.pcache_pno and ppage = mem.Memory.pcache_page in
  match bytes with
  | 8 ->
    let slow a =
      match Memory.read_u64 mem a with
      | raw -> raw
      | exception Memory.Fault (_, fa) ->
        Trap.raise_trap (Trap.Memory_fault fa)
    in
    fun a ->
      cc.loads <- cc.loads + 1;
      cc.base_instrs <- cc.base_instrs + 1;
      let ai = Int64.to_int a in
      let misses =
        if (ai land lmask) + 8 <= lbytes then
          if Cache.access_line cache (ai lsr lsh) then 0 else 1
        else Cache.access_range cache a ~bytes:8 Cache.Load
      in
      cc.cycles <- cc.cycles + cyc + (misses * pen);
      let off = ai land page_off_mask in
      if off <= page_off_mask - 7 then begin
        let pno = ai lsr page_shift in
        let slot = pno land pcache_mask in
        if Array.unsafe_get ppno slot = pno then
          Bytes.get_int64_le (Array.unsafe_get ppage slot).Memory.data off
        else slow a
      end
      else slow a
  | 4 ->
    let slow a =
      match Memory.read_u32 mem a with
      | raw -> raw
      | exception Memory.Fault (_, fa) ->
        Trap.raise_trap (Trap.Memory_fault fa)
    in
    fun a ->
      cc.loads <- cc.loads + 1;
      cc.base_instrs <- cc.base_instrs + 1;
      let ai = Int64.to_int a in
      let misses =
        if (ai land lmask) + 4 <= lbytes then
          if Cache.access_line cache (ai lsr lsh) then 0 else 1
        else Cache.access_range cache a ~bytes:4 Cache.Load
      in
      cc.cycles <- cc.cycles + cyc + (misses * pen);
      let off = ai land page_off_mask in
      if off <= page_off_mask - 3 then begin
        let pno = ai lsr page_shift in
        let slot = pno land pcache_mask in
        if Array.unsafe_get ppno slot = pno then
          Int64.logand
            (Int64.of_int32
               (Bytes.get_int32_le (Array.unsafe_get ppage slot).Memory.data
                  off))
            0xFFFFFFFFL
        else slow a
      end
      else slow a
  | 2 ->
    let slow a =
      match Memory.read_u16 mem a with
      | raw -> Int64.of_int raw
      | exception Memory.Fault (_, fa) ->
        Trap.raise_trap (Trap.Memory_fault fa)
    in
    fun a ->
      cc.loads <- cc.loads + 1;
      cc.base_instrs <- cc.base_instrs + 1;
      let ai = Int64.to_int a in
      let misses =
        if (ai land lmask) + 2 <= lbytes then
          if Cache.access_line cache (ai lsr lsh) then 0 else 1
        else Cache.access_range cache a ~bytes:2 Cache.Load
      in
      cc.cycles <- cc.cycles + cyc + (misses * pen);
      let off = ai land page_off_mask in
      if off <= page_off_mask - 1 then begin
        let pno = ai lsr page_shift in
        let slot = pno land pcache_mask in
        if Array.unsafe_get ppno slot = pno then begin
          let data = (Array.unsafe_get ppage slot).Memory.data in
          Int64.of_int
            (Char.code (Bytes.unsafe_get data off)
            lor (Char.code (Bytes.unsafe_get data (off + 1)) lsl 8))
        end
        else slow a
      end
      else slow a
  | 1 ->
    let slow a =
      match Memory.read_u8 mem a with
      | raw -> Int64.of_int raw
      | exception Memory.Fault (_, fa) ->
        Trap.raise_trap (Trap.Memory_fault fa)
    in
    fun a ->
      cc.loads <- cc.loads + 1;
      cc.base_instrs <- cc.base_instrs + 1;
      let ai = Int64.to_int a in
      let misses = if Cache.access_line cache (ai lsr lsh) then 0 else 1 in
      cc.cycles <- cc.cycles + cyc + (misses * pen);
      let pno = ai lsr page_shift in
      let slot = pno land pcache_mask in
      if Array.unsafe_get ppno slot = pno then
        Int64.of_int
          (Char.code
             (Bytes.unsafe_get
                (Array.unsafe_get ppage slot).Memory.data
                (ai land page_off_mask)))
      else slow a
  | _ ->
    fun a ->
      charge_load st a bytes;
      (match Memory.read_size mem a ~bytes with
      | raw -> raw
      | exception Memory.Fault (_, fa) ->
        Trap.raise_trap (Trap.Memory_fault fa))

(* Staged store tail: same deal with [charge_store] and [write_size];
   the sub-word masks of [Memory.write_size] are replicated exactly. *)
let stage_store st bytes : int64 -> int64 -> unit =
  let cc = st.c and cache = st.cache and mem = st.mem in
  let cyc = 1 + Cost.mem in
  let pen = Cost.miss_penalty in
  let lsh = Cache.line_shift cache in
  let lbytes = 1 lsl lsh in
  let lmask = lbytes - 1 in
  let ppno = mem.Memory.pcache_pno and ppage = mem.Memory.pcache_page in
  match bytes with
  | 8 ->
    let slow a raw =
      match Memory.write_u64 mem a raw with
      | () -> ()
      | exception Memory.Fault (_, fa) ->
        Trap.raise_trap (Trap.Memory_fault fa)
    in
    fun a raw ->
      cc.stores <- cc.stores + 1;
      cc.base_instrs <- cc.base_instrs + 1;
      let ai = Int64.to_int a in
      let misses =
        if (ai land lmask) + 8 <= lbytes then
          if Cache.access_line cache (ai lsr lsh) then 0 else 1
        else Cache.access_range cache a ~bytes:8 Cache.Store
      in
      cc.cycles <- cc.cycles + cyc + (misses * pen);
      let off = ai land page_off_mask in
      if off <= page_off_mask - 7 then begin
        let pno = ai lsr page_shift in
        let slot = pno land pcache_mask in
        if Array.unsafe_get ppno slot = pno then begin
          let p = Array.unsafe_get ppage slot in
          Bytes.set_int64_le p.Memory.data off raw
        end
        else slow a raw
      end
      else slow a raw
  | 4 ->
    let slow a raw =
      match Memory.write_u32 mem a raw with
      | () -> ()
      | exception Memory.Fault (_, fa) ->
        Trap.raise_trap (Trap.Memory_fault fa)
    in
    fun a raw ->
      cc.stores <- cc.stores + 1;
      cc.base_instrs <- cc.base_instrs + 1;
      let ai = Int64.to_int a in
      let misses =
        if (ai land lmask) + 4 <= lbytes then
          if Cache.access_line cache (ai lsr lsh) then 0 else 1
        else Cache.access_range cache a ~bytes:4 Cache.Store
      in
      cc.cycles <- cc.cycles + cyc + (misses * pen);
      let off = ai land page_off_mask in
      if off <= page_off_mask - 3 then begin
        let pno = ai lsr page_shift in
        let slot = pno land pcache_mask in
        if Array.unsafe_get ppno slot = pno then begin
          let p = Array.unsafe_get ppage slot in
          Bytes.set_int32_le p.Memory.data off (Int64.to_int32 raw)
        end
        else slow a raw
      end
      else slow a raw
  | 2 ->
    let slow a ri =
      match Memory.write_u16 mem a ri with
      | () -> ()
      | exception Memory.Fault (_, fa) ->
        Trap.raise_trap (Trap.Memory_fault fa)
    in
    fun a raw ->
      cc.stores <- cc.stores + 1;
      cc.base_instrs <- cc.base_instrs + 1;
      let ai = Int64.to_int a in
      let misses =
        if (ai land lmask) + 2 <= lbytes then
          if Cache.access_line cache (ai lsr lsh) then 0 else 1
        else Cache.access_range cache a ~bytes:2 Cache.Store
      in
      cc.cycles <- cc.cycles + cyc + (misses * pen);
      let ri = Int64.to_int raw land 0xFFFF in
      let off = ai land page_off_mask in
      if off <= page_off_mask - 1 then begin
        let pno = ai lsr page_shift in
        let slot = pno land pcache_mask in
        if Array.unsafe_get ppno slot = pno then begin
          let p = Array.unsafe_get ppage slot in
          let data = p.Memory.data in
          Bytes.unsafe_set data off (Char.unsafe_chr (ri land 0xFF));
          Bytes.unsafe_set data (off + 1)
            (Char.unsafe_chr ((ri lsr 8) land 0xFF))
        end
        else slow a ri
      end
      else slow a ri
  | 1 ->
    let slow a ri =
      match Memory.write_u8 mem a ri with
      | () -> ()
      | exception Memory.Fault (_, fa) ->
        Trap.raise_trap (Trap.Memory_fault fa)
    in
    fun a raw ->
      cc.stores <- cc.stores + 1;
      cc.base_instrs <- cc.base_instrs + 1;
      let ai = Int64.to_int a in
      let misses = if Cache.access_line cache (ai lsr lsh) then 0 else 1 in
      cc.cycles <- cc.cycles + cyc + (misses * pen);
      let ri = Int64.to_int raw land 0xFF in
      let pno = ai lsr page_shift in
      let slot = pno land pcache_mask in
      if Array.unsafe_get ppno slot = pno then begin
        let p = Array.unsafe_get ppage slot in
        Bytes.unsafe_set p.Memory.data (ai land page_off_mask)
          (Char.unsafe_chr ri)
      end
      else slow a ri
  | _ ->
    fun a raw ->
      charge_store st a bytes;
      (match Memory.write_size mem a ~bytes raw with
      | () -> ()
      | exception Memory.Fault (_, fa) ->
        Trap.raise_trap (Trap.Memory_fault fa))

(* ---- staged tag/ISA ops --------------------------------------------- *)

(* Open-coded twins of [Insn.ifpadd] / [Insn.ifpidx] /
   [Insn.poison_from_bounds] ([Insn.ifpextract]): they run on every
   fused gep, take the address delta as an immediate [int] (the
   originals take an [int64]) and decode the scheme with one shift,
   where [Insn.ifpidx] goes through [Tag.subobj_index]'s option. The
   differential suite pins them against the [lib/isa] originals the
   interpreter still uses. *)

let high_bits_mask = Int64.lognot addr_mask (* tag bits 63..44, gen included *)
let poison_clear = Int64.lognot (Int64.shift_left 3L 62)
let poison_oob = Int64.shift_left 1L 62
let poison_invalid = Int64.shift_left 2L 62
let gro_clear = Int64.lognot (Int64.shift_left 0x3FL 54)
let gran_mask_i = lnot (Tag.granule - 1)
let sub6_clear = Int64.lognot (Int64.shift_left 0x3FL 48)
let sub8_clear = Int64.lognot (Int64.shift_left 0xFFL 48)

let[@inline] s_poison_from_bounds p bounds =
  match bounds with
  | Bounds.No_bounds -> p
  | Bounds.Bounds { lo; hi } ->
    let a = Int64.to_int p land addr_mask_i in
    if lo <= a && a < hi then
      Int64.logand p poison_clear
    else Int64.logor (Int64.logand p poison_clear) poison_oob

(* [delta] is an immediate [int]: only its low 44 bits reach the
   address, and a sum of index products taken modulo 2^63 keeps them *)
let s_ifpadd p ~delta ~bounds =
  let old_addr = Int64.to_int p land addr_mask_i in
  let new_addr = (old_addr + delta) land addr_mask_i in
  let p0 = Int64.logor (Int64.logand p high_bits_mask) (Int64.of_int new_addr) in
  let p' =
    match Int64.to_int (Int64.shift_right_logical p 60) land 3 with
    | 0 -> p0 (* Legacy *)
    | 1 ->
      (* Local_offset: keep the metadata address invariant across the
         move, poisoning the pointer when it leaves reach *)
      let gro = Int64.to_int (Int64.shift_right_logical p 54) land 0x3F in
      let meta = (old_addr land gran_mask_i) + (gro * Tag.granule) in
      let diff = meta - (new_addr land gran_mask_i) in
      if diff < 0 || diff mod Tag.granule <> 0 || diff / Tag.granule > 63 then
        Int64.logor (Int64.logand p0 poison_clear) poison_invalid
      else
        Int64.logor
          (Int64.logand p0 gro_clear)
          (Int64.shift_left (Int64.of_int (diff / Tag.granule)) 54)
    | _ -> p0 (* Subheap | Global_table *)
  in
  if Int64.to_int (Int64.shift_right_logical p' 62) land 3 >= 2 then p'
  else s_poison_from_bounds p' bounds

let s_ifpidx p delta =
  match Int64.to_int (Int64.shift_right_logical p 60) land 3 with
  | 1 ->
    (* Local_offset: 6-bit saturating subobject index *)
    let old = Int64.to_int (Int64.shift_right_logical p 48) land 0x3F in
    Int64.logor
      (Int64.logand p sub6_clear)
      (Int64.shift_left (Int64.of_int (Ifp_util.Bits.imin (old + delta) 63)) 48)
  | 2 ->
    (* Subheap: 8-bit saturating subobject index *)
    let old = Int64.to_int (Int64.shift_right_logical p 48) land 0xFF in
    Int64.logor
      (Int64.logand p sub8_clear)
      (Int64.shift_left (Int64.of_int (Ifp_util.Bits.imin (old + delta) 255)) 48)
  | _ -> p

(* value-wrapping load tail for a scalar class, sign extension staged *)
let load_tail (ld : int64 -> int64) cls bytes : int64 -> value =
  match cls with
  | R.Cls_ptr -> fun w' -> VP (ld w', Bounds.no_bounds)
  | R.Cls_f64 -> fun w' -> VF (Int64.float_of_bits (ld w'))
  | R.Cls_int ->
    if bytes = 8 then fun w' -> VI (ld w')
    else
      let sh = 64 - (bytes * 8) in
      fun w' -> VI (Int64.shift_right (Int64.shift_left (ld w') sh) sh)

(* unboxed integer load tail: [sext] with the shift staged *)
let load_tail_i (ld : int64 -> int64) bytes : int64 -> int64 =
  if bytes = 8 then ld
  else
    let sh = 64 - (bytes * 8) in
    fun w' -> Int64.shift_right (Int64.shift_left (ld w') sh) sh

(* Staged store of a boxed value: the raw bits of [Rt.store_raw], with
   the class dispatch and the [ifp_mode && instrumented] test resolved
   now (only the per-value [VP]-with-bounds demote test remains at run
   time), then the staged store tail. The demote's [ifpextract] charge
   lands before the store's charges; nothing between them can raise. *)
let stage_store_value st ~instr cls bytes : int64 -> value -> unit =
  let stw = stage_store st bytes in
  match cls with
  | R.Cls_f64 -> fun a v -> stw a (Int64.bits_of_float (as_float v))
  | R.Cls_ptr when instr ->
    let chg_ext = stage_charge_ifp st Insn.Ifpextract in
    fun a v ->
      stw a
        (match v with
        | VP (pw, Bounds.No_bounds) -> pw
        | VP (pw, pb) ->
          chg_ext ();
          s_poison_from_bounds pw pb
        | v -> as_int v)
  | R.Cls_ptr -> fun a v -> stw a (match v with VP (pw, _) -> pw | v -> as_int v)
  | R.Cls_int -> fun a v -> stw a (as_int v)

(* ---- static value-class analysis ------------------------------------ *)

(* [never_ptr e] is true when [e] can never evaluate to a [VP]: integer
   and float producers. Used to kill the pointer-vs-pointer branch of
   comparisons at compile time, so both operands can run through the
   unboxed integer compiler ([eval_i] is charge-identical to
   [as_int]-of-[eval] by contract). Conservative: [Var], [Call],
   promote and pointer loads stay "maybe pointer". *)
let never_ptr (e : R.expr) =
  match e with
  | R.Int _ | R.Float _ -> true
  | R.Binop
      ( ( Ir.Add | Ir.Sub | Ir.Mul | Ir.Div | Ir.Rem | Ir.BAnd | Ir.BOr
        | Ir.BXor | Ir.Shl | Ir.Shr | Ir.LAnd | Ir.LOr | Ir.Eq | Ir.Ne
        | Ir.Lt | Ir.Le | Ir.Gt | Ir.Ge | Ir.FAdd | Ir.FSub | Ir.FMul
        | Ir.FDiv | Ir.FEq | Ir.FLt | Ir.FLe ),
        _,
        _ ) ->
    true
  | R.Unop _ -> true
  | R.Load { cls = R.Cls_int | R.Cls_f64; _ } -> true
  | R.Load_global { cls = R.Cls_int | R.Cls_f64; _ } -> true
  | R.Cast { kind = R.Cast_int _ | R.Cast_f64; _ } -> true
  | _ -> false

(* ---- access sites ---------------------------------------------------- *)

(* a gep of fields and indexes only: it fuses to an address word *)
let fusable steps =
  List.for_all
    (function R.Rs_field _ | R.Rs_index _ -> true | R.Rs_bad _ -> false)
    steps

(* Where a load or store site gets its address: a fused gep's word, which
   leaves its bounds register in [env.gb], or a boxed value. *)
type src = Word of (frame -> int64) | Boxed of vcode

(* What a site does once its address is checked: a load, whose staged
   tail makes the result, or a store of a value produced by [frame -> 'v]
   through a staged writer, followed by the successor statement. *)
type _ tail =
  | Load : (int64 -> 'r) -> 'r tail
  | Store : (frame -> 'v) * (int64 -> 'v -> unit) * ucode -> unit tail

(* ---- the compiler --------------------------------------------------- *)

let rec compile_expr c (e : R.expr) : vcode =
  let st = c.env.st in
  match e with
  | R.Int x ->
    let v = VI x in
    fun _ -> v
  | R.Float f ->
    let v = VF f in
    fun _ -> v
  | R.Var i ->
    fun fr ->
      let v = Array.unsafe_get fr.vars i in
      if v == unbound then
        abort ("unbound variable " ^ fr.rf.var_names.(i))
      else v
  | R.Binop (Ir.LAnd, a, b) ->
    let ca = compile_expr c a and cb = compile_expr c b in
    fun fr ->
      base st 1;
      if not (truth (ca fr)) then vi_zero else vi_bool (truth (cb fr))
  | R.Binop (Ir.LOr, a, b) ->
    let ca = compile_expr c a and cb = compile_expr c b in
    fun fr ->
      base st 1;
      if truth (ca fr) then vi_one else vi_bool (truth (cb fr))
  | R.Binop (((Ir.Eq | Ir.Ne | Ir.Lt | Ir.Le | Ir.Gt | Ir.Ge) as op), a, b) ->
    (* boxed twin of the comparison specialization: only the boolean
       result is boxed *)
    let cc = compile_cmp_bool c op a b in
    fun fr -> vi_bool (cc fr)
  | R.Binop
      ( ( Ir.Add | Ir.Sub | Ir.Mul | Ir.Div | Ir.Rem | Ir.BAnd | Ir.BOr
        | Ir.BXor | Ir.Shl | Ir.Shr ),
        _,
        _ ) ->
    (* integer-producing op: reuse the unboxed compiler, box once *)
    let ci = compile_expr_i c e in
    fun fr -> VI (ci fr)
  | R.Binop (((Ir.FAdd | Ir.FSub | Ir.FMul | Ir.FDiv) as op), a, b) ->
    let ca = compile_expr c a and cb = compile_expr c b in
    let fpx = Cost.fp - 1 in
    (match op with
    | Ir.FAdd ->
      fun fr ->
        let vb = cb fr in
        let va = ca fr in
        base st 1;
        cycles st fpx;
        VF (as_float va +. as_float vb)
    | Ir.FSub ->
      fun fr ->
        let vb = cb fr in
        let va = ca fr in
        base st 1;
        cycles st fpx;
        VF (as_float va -. as_float vb)
    | Ir.FMul ->
      fun fr ->
        let vb = cb fr in
        let va = ca fr in
        base st 1;
        cycles st fpx;
        VF (as_float va *. as_float vb)
    | Ir.FDiv ->
      fun fr ->
        let vb = cb fr in
        let va = ca fr in
        base st 1;
        cycles st fpx;
        VF (as_float va /. as_float vb)
    | _ -> assert false)
  | R.Binop (((Ir.FEq | Ir.FLt | Ir.FLe) as op), a, b) ->
    let ca = compile_expr c a and cb = compile_expr c b in
    let fpx = Cost.fp - 1 in
    (match op with
    | Ir.FEq ->
      fun fr ->
        let vb = cb fr in
        let va = ca fr in
        base st 1;
        cycles st fpx;
        vi_bool (as_float va = as_float vb)
    | Ir.FLt ->
      fun fr ->
        let vb = cb fr in
        let va = ca fr in
        base st 1;
        cycles st fpx;
        vi_bool (as_float va < as_float vb)
    | Ir.FLe ->
      fun fr ->
        let vb = cb fr in
        let va = ca fr in
        base st 1;
        cycles st fpx;
        vi_bool (as_float va <= as_float vb)
    | _ -> assert false)
  | R.Unop (op, a) ->
    let ca = compile_expr c a in
    fun fr -> eval_unop st op (ca fr)
  | R.Load { cls; bytes; addr } ->
    compile_access c addr ~size:bytes
      (Load (load_tail (stage_load st bytes) cls bytes))
  | R.Addr_local slot ->
    if c.instr then
      let chg_bnd = stage_charge_ifp st Insn.Ifpbnd in
      fun fr ->
        base st 1;
        let addr = fr.local_addr.(slot) in
        if Int64.equal addr local_unset then
          abort ("address of unknown local " ^ fr.rf.local_names.(slot))
        else begin
          chg_bnd ();
          VP
            ( fr.local_tagged.(slot),
              Bounds.of_base_size addr fr.local_size.(slot) )
        end
    else
      fun fr ->
        base st 1;
        let addr = fr.local_addr.(slot) in
        if Int64.equal addr local_unset then
          abort ("address of unknown local " ^ fr.rf.local_names.(slot))
        else VP (addr, Bounds.no_bounds)
  | R.Addr_global g ->
    (* globals are fully set up before compilation runs *)
    let go = st.globals.(g) in
    if c.instr then
      let chg_bnd = stage_charge_ifp st Insn.Ifpbnd in
      fun _ ->
        base st 5;
        chg_bnd ();
        VP (go.gtagged, go.gbounds)
    else
      fun _ ->
        base st 1;
        VP (go.gaddr, Bounds.no_bounds)
  | R.Load_global { g; cls; bytes } ->
    (* the global's address is static: the staged access tail runs on
       the pre-masked address, like any fused load *)
    let go = st.globals.(g) in
    let tail = load_tail (stage_load st bytes) cls bytes in
    let ga = Int64.logand go.gaddr addr_mask in
    fun _ -> tail ga
  | R.Gep { base = gbase; steps; idx_delta; site = _ } ->
    compile_gep c gbase steps idx_delta
  | R.Call { target; args; n_args } -> compile_call c target args n_args
  | R.Malloc { scale; count; cty; layout_multi } ->
    let cc = compile_expr_i c count in
    fun fr ->
      let n = Int64.to_int (cc fr) in
      do_malloc st fr ~size:(Ifp_util.Bits.imax 1 n * scale) ~cty ~layout_multi
  | R.Cast { kind; e } -> (
    let ce = compile_expr c e in
    match kind with
    | R.Cast_ptr ->
      (fun fr ->
        match ce fr with
        | VI w ->
          if Int64.equal w 0L then null_ptr else VP (w, Bounds.no_bounds)
        | VP _ as v -> v
        | VF _ -> abort "float to pointer cast")
    | R.Cast_f64 ->
      fun fr ->
        let v = ce fr in
        base st 1;
        VF (as_float v)
    | R.Cast_int n ->
      (fun fr ->
        match ce fr with
        | VF f ->
          base st 1;
          VI (Int64.of_float f)
        | v -> VI (sext (as_int v) n)))
  | R.Ifp_promote { e; site = _ } ->
    let ce = compile_expr c e in
    let charge = c.env.pcharge in
    fun fr -> eval_promote_with st ~charge (ce fr)
  | R.Bad msg -> fun _ -> abort msg

(* Unboxed integer compilation: the staged twin of [Vm_slot.eval_i], used in
   the same contexts (conditions, integer arithmetic, gep indexes,
   malloc counts, integer stores) so charges and failure order stay
   identical per context. *)
and compile_expr_i c (e : R.expr) : icode =
  let st = c.env.st in
  match e with
  | R.Int x -> fun _ -> x
  | R.Var i ->
    fun fr ->
      let v = Array.unsafe_get fr.vars i in
      if v == unbound then
        abort ("unbound variable " ^ fr.rf.var_names.(i))
      else as_int v
  | R.Binop (Ir.LAnd, a, b) ->
    let ca = compile_expr_i c a and cb = compile_expr_i c b in
    fun fr ->
      base st 1;
      if Int64.equal (ca fr) 0L then 0L
      else if Int64.equal (cb fr) 0L then 0L
      else 1L
  | R.Binop (Ir.LOr, a, b) ->
    let ca = compile_expr_i c a and cb = compile_expr_i c b in
    fun fr ->
      base st 1;
      if not (Int64.equal (ca fr) 0L) then 1L
      else if Int64.equal (cb fr) 0L then 0L
      else 1L
  | R.Binop
      ( (( Ir.Add | Ir.Sub | Ir.Mul | Ir.Div | Ir.Rem | Ir.BAnd | Ir.BOr
         | Ir.BXor | Ir.Shl | Ir.Shr ) as op),
        a,
        b ) ->
    let ca = compile_expr_i c a and cb = compile_expr_i c b in
    (match op with
    | Ir.Add ->
      fun fr ->
        let y = cb fr in
        let x = ca fr in
        base st 1;
        Int64.add x y
    | Ir.Sub ->
      fun fr ->
        let y = cb fr in
        let x = ca fr in
        base st 1;
        Int64.sub x y
    | Ir.Mul ->
      fun fr ->
        let y = cb fr in
        let x = ca fr in
        cycles st (Cost.mul - 1);
        base st 1;
        Int64.mul x y
    | Ir.Div ->
      fun fr ->
        let y = cb fr in
        let x = ca fr in
        cycles st (Cost.div - 1);
        if Int64.equal y 0L then abort "division by zero";
        base st 1;
        Int64.div x y
    | Ir.Rem ->
      fun fr ->
        let y = cb fr in
        let x = ca fr in
        cycles st (Cost.div - 1);
        if Int64.equal y 0L then abort "remainder by zero";
        base st 1;
        Int64.rem x y
    | Ir.BAnd ->
      fun fr ->
        let y = cb fr in
        let x = ca fr in
        base st 1;
        Int64.logand x y
    | Ir.BOr ->
      fun fr ->
        let y = cb fr in
        let x = ca fr in
        base st 1;
        Int64.logor x y
    | Ir.BXor ->
      fun fr ->
        let y = cb fr in
        let x = ca fr in
        base st 1;
        Int64.logxor x y
    | Ir.Shl ->
      fun fr ->
        let y = cb fr in
        let x = ca fr in
        base st 1;
        Int64.shift_left x (Int64.to_int y land 63)
    | Ir.Shr ->
      fun fr ->
        let y = cb fr in
        let x = ca fr in
        base st 1;
        Int64.shift_right_logical x (Int64.to_int y land 63)
    | _ -> assert false)
  | R.Unop (((Ir.Neg | Ir.BNot | Ir.LNot) as op), a) ->
    let ca = compile_expr_i c a in
    (match op with
    | Ir.Neg ->
      fun fr ->
        let x = ca fr in
        base st 1;
        Int64.neg x
    | Ir.BNot ->
      fun fr ->
        let x = ca fr in
        base st 1;
        Int64.lognot x
    | Ir.LNot ->
      fun fr ->
        let x = ca fr in
        base st 1;
        if Int64.equal x 0L then 1L else 0L
    | _ -> assert false)
  | R.Load { cls = R.Cls_int; bytes; addr } ->
    compile_access c addr ~size:bytes (Load (load_tail_i (stage_load st bytes) bytes))
  | R.Load_global { g; cls = R.Cls_int; bytes } ->
    (* unboxed twin of the staged global load *)
    let go = st.globals.(g) in
    let tail = load_tail_i (stage_load st bytes) bytes in
    let ga = Int64.logand go.gaddr addr_mask in
    fun _ -> tail ga
  | R.Binop (((Ir.Eq | Ir.Ne | Ir.Lt | Ir.Le | Ir.Gt | Ir.Ge) as op), a, b) ->
    let cc = compile_cmp_bool c op a b in
    fun fr -> if cc fr then 1L else 0L
  | R.Binop (((Ir.FEq | Ir.FLt | Ir.FLe) as op), a, b) ->
    let ca = compile_expr c a and cb = compile_expr c b in
    let test : float -> float -> bool =
      match op with
      | Ir.FEq -> ( = )
      | Ir.FLt -> ( < )
      | Ir.FLe -> ( <= )
      | _ -> assert false
    in
    fun fr ->
      let vb = cb fr in
      let va = ca fr in
      base st 1;
      cycles st (Cost.fp - 1);
      let y = as_float vb in
      let x = as_float va in
      if test x y then 1L else 0L
  | e ->
    let ce = compile_expr c e in
    fun fr -> as_int (ce fr)

(* Comparison compilation to a boolean closure, with the per-site test
   staged as three acceptance booleans over the sign of [Int64.compare]
   (no test closure to call at run time) and leaf operands (Var / Int)
   read inline. Handles every comparison shape: when one side is an
   integer literal or provably non-pointer the VP/VP address-compare
   branch is compiled away, otherwise it is kept. *)
and compile_cmp_bool c op a b : frame -> bool =
  let st = c.env.st in
  let an, az, ap =
    match op with
    | Ir.Eq -> (false, true, false)
    | Ir.Ne -> (true, false, true)
    | Ir.Lt -> (true, false, false)
    | Ir.Le -> (true, true, false)
    | Ir.Gt -> (false, false, true)
    | Ir.Ge -> (false, true, true)
    | _ -> assert false
  in
  match (a, b) with
  | R.Var ia, R.Int y ->
    (* literal rhs is VI, so the VP/VP branch is dead *)
    fun fr ->
      let va = Array.unsafe_get fr.vars ia in
      if va == unbound then
        abort ("unbound variable " ^ fr.rf.var_names.(ia));
      let x = as_int va in
      base st 1;
      let cv = Int64.compare x y in
      if cv < 0 then an else if cv = 0 then az else ap
  | R.Int x, R.Var ib ->
    fun fr ->
      let vb = Array.unsafe_get fr.vars ib in
      if vb == unbound then
        abort ("unbound variable " ^ fr.rf.var_names.(ib));
      let y = as_int vb in
      base st 1;
      let cv = Int64.compare x y in
      if cv < 0 then an else if cv = 0 then az else ap
  | R.Var ia, R.Var ib ->
    (* both sides may be pointers: keep the address-compare branch,
       but read the slots inline (b first, as the reference does) *)
    fun fr ->
      let vb = Array.unsafe_get fr.vars ib in
      if vb == unbound then
        abort ("unbound variable " ^ fr.rf.var_names.(ib));
      let va = Array.unsafe_get fr.vars ia in
      if va == unbound then
        abort ("unbound variable " ^ fr.rf.var_names.(ia));
      base st 1;
      let cv =
        match (va, vb) with
        | VP (wa, _), VP (wb, _) -> Int64.compare (Tag.addr wa) (Tag.addr wb)
        | _ -> Int64.compare (as_int va) (as_int vb)
      in
      if cv < 0 then an else if cv = 0 then az else ap
  | a, R.Int y ->
    let ca = compile_expr_i c a in
    fun fr ->
      let x = ca fr in
      base st 1;
      let cv = Int64.compare x y in
      if cv < 0 then an else if cv = 0 then az else ap
  | a, b when never_ptr a || never_ptr b ->
    let ca = compile_expr_i c a and cb = compile_expr_i c b in
    fun fr ->
      let y = cb fr in
      let x = ca fr in
      base st 1;
      let cv = Int64.compare x y in
      if cv < 0 then an else if cv = 0 then az else ap
  | a, b ->
    let ca = compile_expr c a and cb = compile_expr c b in
    fun fr ->
      let vb = cb fr in
      let va = ca fr in
      base st 1;
      let cv =
        match (va, vb) with
        | VP (wa, _), VP (wb, _) -> Int64.compare (Tag.addr wa) (Tag.addr wb)
        | _ -> Int64.compare (as_int va) (as_int vb)
      in
      if cv < 0 then an else if cv = 0 then az else ap

(* Boolean condition compilation for [If]/[While]: same closure as
   [compile_expr_i] followed by a zero test, but a comparison skips the
   0L/1L materialization and returns the test result directly. *)
and compile_cond c (e : R.expr) : frame -> bool =
  match e with
  | R.Binop (((Ir.Eq | Ir.Ne | Ir.Lt | Ir.Le | Ir.Gt | Ir.Ge) as op), a, b) ->
    compile_cmp_bool c op a b
  | e ->
    let cc = compile_expr_i c e in
    fun fr -> not (Int64.equal (cc fr) 0L)

(* ---- gep ------------------------------------------------------------ *)

(* Fused gep address computation: compiles a gep whose steps are all
   fields and indexes ([fusable]) to a closure returning the result
   pointer word (and writing its bounds register to [env.gb]) without
   boxing a value — replicating [Vm_slot.eval_gep] charge-for-charge.
   Field offsets fold into constants; the index expressions run in step
   order; the narrowed bounds are those of the last field step when it
   lies inside the incoming bounds, and the dynamic-index count is the
   number of index steps.

   On the instrumented path the offsets, index products and bounds are
   immediate ints: [ifpadd] reads the low 44 bits of the delta and a
   bounds register the low 48 bits of its addresses, and both survive
   arithmetic modulo 2^63. The uninstrumented result is the full 64-bit
   [w + delta], so that path stays on int64. *)
and compile_gep_addr c gbase steps idx_delta : frame -> int64 =
  let st = c.env.st in
  let env = c.env in
  let cb = compile_expr c gbase in
  (* the static shape: [coff] sums the field offsets, [fsz] is the
     size of the last field, and the first [npre] index steps come
     before that field, so they move its bounds as well as the
     address *)
  let coff = ref 0 and fsz = ref (-1) and npre = ref 0 and idxs = ref [] in
  List.iter
    (function
      | R.Rs_field { off; fsize } ->
        coff := !coff + off;
        fsz := fsize;
        npre := List.length !idxs
      | R.Rs_index { esize; idx } -> idxs := (compile_expr_i c idx, esize) :: !idxs
      | R.Rs_bad _ -> assert false)
    steps;
  let coff = !coff and fsz = !fsz and npre = !npre in
  let have_nb = fsz >= 0 in
  let idxs = Array.of_list (List.rev !idxs) in
  let n = Array.length idxs in
  let cc = st.c in
  let float_ptr () = abort "float used as pointer" in
  if c.instr then begin
    let ix_add = Counters.kind_index Insn.Ifpadd
    and cyc_add = Cost.ifp_cycles Insn.Ifpadd
    and ix_idx = Counters.kind_index Insn.Ifpidx
    and cyc_idx = Cost.ifp_cycles Insn.Ifpidx
    and ix_bnd = Counters.kind_index Insn.Ifpbnd
    and cyc_bnd = Cost.ifp_cycles Insn.Ifpbnd in
    let dyn_cyc = n * Cost.mul in
    (* the interpreter's gep finish on the instrumented path; [nb_lo] is
       the last field's start, unmasked, and is read only when [have_nb] *)
    let finish w b ~delta ~nb_lo =
      if n > 0 then begin
        cc.base_instrs <- cc.base_instrs + n;
        cc.cycles <- cc.cycles + dyn_cyc
      end;
      let out_bounds =
        match b with
        | Bounds.Bounds { lo; hi } when have_nb ->
          (* narrow only to a field inside the incoming bounds: one
             outside them keeps them, and [s_ifpadd] poisons *)
          let lo' = nb_lo land Bounds.mask48 in
          let hi' = (nb_lo + fsz) land Bounds.mask48 in
          if (lo' <> lo || hi' <> hi) && lo <= lo' && hi' <= hi then
            Bounds.Bounds { lo = lo'; hi = hi' }
          else b
        | Bounds.Bounds _ | Bounds.No_bounds -> b
      in
      cc.ifp.(ix_add) <- cc.ifp.(ix_add) + 1;
      cc.cycles <- cc.cycles + cyc_add;
      let w' = s_ifpadd w ~delta ~bounds:out_bounds in
      let w' =
        if idx_delta > 0 then begin
          cc.ifp.(ix_idx) <- cc.ifp.(ix_idx) + 1;
          cc.cycles <- cc.cycles + cyc_idx;
          s_ifpidx w' idx_delta
        end
        else w'
      in
      (* [out_bounds] is [b] itself exactly when the two are equal *)
      if out_bounds != b then begin
        cc.ifp.(ix_bnd) <- cc.ifp.(ix_bnd) + 1;
        cc.cycles <- cc.cycles + cyc_bnd
      end;
      env.gb <- out_bounds;
      w'
    in
    let[@inline] nb_lo w pre = (Int64.to_int w land addr_mask_i) + coff + pre in
    match idxs with
    | [||] ->
      (fun fr ->
          match cb fr with
          | VP (w, b) -> finish w b ~delta:coff ~nb_lo:(nb_lo w 0)
          | VI w -> finish w Bounds.No_bounds ~delta:coff ~nb_lo:0
          | VF _ -> float_ptr ())
    | [| (ci, es) |] ->
      let pre = npre = 1 in
      (fun fr ->
          let v = cb fr in
          (match v with VF _ -> float_ptr () | VP _ | VI _ -> ());
          let k = Int64.to_int (ci fr) * es in
          match v with
          | VP (w, b) ->
            finish w b ~delta:(coff + k) ~nb_lo:(nb_lo w (if pre then k else 0))
          | VI w -> finish w Bounds.No_bounds ~delta:(coff + k) ~nb_lo:0
          | VF _ -> float_ptr ())
    | _ ->
      (fun fr ->
          let v = cb fr in
          (match v with VF _ -> float_ptr () | VP _ | VI _ -> ());
          let tot = ref coff and pre = ref 0 in
          for i = 0 to n - 1 do
            let ci, es = Array.unsafe_get idxs i in
            let k = Int64.to_int (ci fr) * es in
            tot := !tot + k;
            if i < npre then pre := !pre + k
          done;
          match v with
          | VP (w, b) -> finish w b ~delta:!tot ~nb_lo:(nb_lo w !pre)
          | VI w -> finish w Bounds.No_bounds ~delta:!tot ~nb_lo:0
          | VF _ -> float_ptr ())
  end
  else begin
    let coffL = Int64.of_int coff in
    let dyn_instrs = 2 * n and dyn_cyc = n * (Cost.mul + Cost.alu) in
    let word fr =
      match cb fr with VP (w, _) | VI w -> w | VF _ -> float_ptr ()
    in
    let charge_dyn () =
      cc.base_instrs <- cc.base_instrs + dyn_instrs;
      cc.cycles <- cc.cycles + dyn_cyc;
      env.gb <- Bounds.no_bounds
    in
    match idxs with
    | [||] ->
      (fun fr ->
          let w = word fr in
          env.gb <- Bounds.no_bounds;
          Int64.add w coffL)
    | [| (ci, es) |] ->
      let esL = Int64.of_int es in
      (fun fr ->
          let w = word fr in
          let k = ci fr in
          charge_dyn ();
          Int64.add w (Int64.add coffL (Int64.mul k esL)))
    | [| (ci1, es1); (ci2, es2) |] ->
      let esL1 = Int64.of_int es1 and esL2 = Int64.of_int es2 in
      (fun fr ->
          let w = word fr in
          let k1 = ci1 fr in
          let k2 = ci2 fr in
          charge_dyn ();
          Int64.add w
            (Int64.add coffL (Int64.add (Int64.mul k1 esL1) (Int64.mul k2 esL2))))
    | _ ->
      (fun fr ->
          let w = word fr in
          let d =
            Array.fold_left
              (fun d (ci, es) -> Int64.add d (Int64.mul (ci fr) (Int64.of_int es)))
              coffL idxs
          in
          charge_dyn ();
          Int64.add w d)
  end

(* gep producing a boxed pointer value: the fused address closure plus
   one [VP]. A gep with an [Rs_bad] step evaluates its base and the
   index steps before it, then aborts. *)
and compile_gep c gbase steps idx_delta : vcode =
  if fusable steps then begin
    let ga = compile_gep_addr c gbase steps idx_delta and env = c.env in
    fun fr ->
      let w' = ga fr in
      VP (w', env.gb)
  end
  else
    let cb = compile_expr c gbase in
    let rec before_bad acc = function
      | R.Rs_bad msg :: _ -> (List.rev acc, msg)
      | R.Rs_index { idx; esize = _ } :: rest ->
        before_bad (compile_expr_i c idx :: acc) rest
      | R.Rs_field _ :: rest -> before_bad acc rest
      | [] -> assert false
    in
    let idxs, msg = before_bad [] steps in
    fun fr ->
      (match cb fr with
      | VF _ -> abort "float used as pointer"
      | VP _ | VI _ -> ());
      List.iter (fun ci -> ignore (ci fr)) idxs;
      abort msg

(* ---- loads and stores ----------------------------------------------- *)

(* The one staged access path of every load and store site: the address
   producer — a fused gep word, bounds in [env.gb], or any boxed value —
   then the function's [check], then the tail. A store's value runs
   between the address and the check, as in the reference, and its
   writer after the check. Each (producer, check, tail) triple is its
   own closure, so the unarmed ones keep [check_instr] open-coded. *)
and compile_access : type r. ctx -> R.expr -> size:int -> r tail -> frame -> r =
 fun c addr ~size tail ->
  let st = c.env.st in
  let env = c.env in
  let src =
    match addr with
    | R.Gep { base = gbase; steps; idx_delta; site = _ } when fusable steps ->
      Word (compile_gep_addr c gbase steps idx_delta)
    | addr -> Boxed (compile_expr c addr)
  in
  match (src, c.check, tail) with
  | Word ga, Unchecked, Load ld -> fun fr -> ld (Int64.logand (ga fr) addr_mask)
  | Word ga, Checked, Load ld ->
    fun fr ->
      let w' = ga fr in
      ld (check_instr st w' env.gb ~is_store:false ~size)
  | Word ga, Armed chk, Load ld ->
    let chk = chk ~is_store:false ~size in
    fun fr ->
      let w' = ga fr in
      ld (chk w' env.gb)
  | Boxed ca, Unchecked, Load ld -> (
    fun fr ->
      match ca fr with
      | VP (w, _) | VI w -> ld (Int64.logand w addr_mask)
      | VF _ -> abort "float used as pointer")
  | Boxed ca, Checked, Load ld -> (
    fun fr ->
      match ca fr with
      | VP (w, b) -> ld (check_instr st w b ~is_store:false ~size)
      | VI w -> ld (check_instr st w Bounds.No_bounds ~is_store:false ~size)
      | VF _ -> abort "float used as pointer")
  | Boxed ca, Armed chk, Load ld ->
    let chk = chk ~is_store:false ~size in
    fun fr ->
      let w, b = as_ptr (ca fr) in
      ld (chk w b)
  | Word ga, Unchecked, Store (cv, wr, next) ->
    fun fr ->
      let w' = ga fr in
      let v = cv fr in
      wr (Int64.logand w' addr_mask) v;
      next fr
  | Word ga, Checked, Store (cv, wr, next) ->
    fun fr ->
      let w' = ga fr in
      let ob = env.gb in
      let v = cv fr in
      wr (check_instr st w' ob ~is_store:true ~size) v;
      next fr
  | Word ga, Armed chk, Store (cv, wr, next) ->
    let chk = chk ~is_store:true ~size in
    fun fr ->
      let w' = ga fr in
      let ob = env.gb in
      let v = cv fr in
      wr (chk w' ob) v;
      next fr
  | Boxed ca, Unchecked, Store (cv, wr, next) ->
    fun fr ->
      let a = ca fr in
      let v = cv fr in
      (match a with
      | VP (w, _) | VI w -> wr (Int64.logand w addr_mask) v
      | VF _ -> abort "float used as pointer");
      next fr
  | Boxed ca, Checked, Store (cv, wr, next) ->
    fun fr ->
      let a = ca fr in
      let v = cv fr in
      (match a with
      | VP (w, b) -> wr (check_instr st w b ~is_store:true ~size) v
      | VI w -> wr (check_instr st w Bounds.No_bounds ~is_store:true ~size) v
      | VF _ -> abort "float used as pointer");
      next fr
  | Boxed ca, Armed chk, Store (cv, wr, next) ->
    let chk = chk ~is_store:true ~size in
    fun fr ->
      let a = ca fr in
      let v = cv fr in
      let w, b = as_ptr a in
      wr (chk w b) v;
      next fr

(* ---- calls ---------------------------------------------------------- *)

and compile_call c target args n_args : vcode =
  let st = c.env.st in
  let env = c.env in
  match target with
  | R.C_func i when List.compare_lengths (st.rp.funcs.(i)).R.params args = 0 ->
    (* arity matches: evaluate arguments straight into the callee's
       slots, then prelude, then the compiled body (fetched at call
       time — the callee may compile after this site). *)
    let f = st.rp.funcs.(i) in
    let strip = not f.instrumented in
    (* stage the bounds-strip decision out of the call path: wrap the
       argument code itself for legacy (uninstrumented) callees *)
    let carg a =
      let ce = compile_expr c a in
      if strip then fun fr -> strip_bounds (ce fr) else ce
    in
    let binds =
      Array.of_list (List.map2 (fun p a -> (p, carg a)) f.params args)
    in
    (* unroll the common small arities into straight-line slot writes *)
    (match binds with
    | [||] ->
      fun _ ->
        let callee_frame = make_frame f in
        let spills = call_prelude st f n_args in
        run_body st f (Array.unsafe_get env.fbodies i) callee_frame spills
    | [| (p0, ce0) |] ->
      fun fr ->
        let callee_frame = make_frame f in
        Array.unsafe_set callee_frame.vars p0 (ce0 fr);
        let spills = call_prelude st f n_args in
        run_body st f (Array.unsafe_get env.fbodies i) callee_frame spills
    | [| (p0, ce0); (p1, ce1) |] ->
      fun fr ->
        let callee_frame = make_frame f in
        Array.unsafe_set callee_frame.vars p0 (ce0 fr);
        Array.unsafe_set callee_frame.vars p1 (ce1 fr);
        let spills = call_prelude st f n_args in
        run_body st f (Array.unsafe_get env.fbodies i) callee_frame spills
    | [| (p0, ce0); (p1, ce1); (p2, ce2) |] ->
      fun fr ->
        let callee_frame = make_frame f in
        Array.unsafe_set callee_frame.vars p0 (ce0 fr);
        Array.unsafe_set callee_frame.vars p1 (ce1 fr);
        Array.unsafe_set callee_frame.vars p2 (ce2 fr);
        let spills = call_prelude st f n_args in
        run_body st f (Array.unsafe_get env.fbodies i) callee_frame spills
    | binds ->
      let n_binds = Array.length binds in
      fun fr ->
        let callee_frame = make_frame f in
        for j = 0 to n_binds - 1 do
          let p, ce = Array.unsafe_get binds j in
          Array.unsafe_set callee_frame.vars p (ce fr)
        done;
        let spills = call_prelude st f n_args in
        run_body st f (Array.unsafe_get env.fbodies i) callee_frame spills)
  | target -> (
    let cargs = List.map (compile_expr c) args in
    match target with
    | R.C_print_i64 ->
      fun fr ->
        let argv = List.map (fun ce -> ce fr) cargs in
        base st 3;
        (match argv with
        | [ v ] -> print st (Int64.to_string (as_int v))
        | _ -> ());
        VI 0L
    | R.C_print_f64 ->
      fun fr ->
        let argv = List.map (fun ce -> ce fr) cargs in
        base st 3;
        (match argv with
        | [ v ] -> print st (Printf.sprintf "%.6g" (as_float v))
        | _ -> ());
        VI 0L
    | R.C_abort ->
      fun fr ->
        let argv = List.map (fun ce -> ce fr) cargs in
        ignore argv;
        abort "program called __abort"
    | R.C_unknown fn ->
      fun fr ->
        let argv = List.map (fun ce -> ce fr) cargs in
        ignore argv;
        abort ("call to unknown function " ^ fn)
    | R.C_func i ->
      (* arity mismatch: keep the reference path, including its
         [Invalid_argument] after evaluating every argument *)
      fun fr ->
        let argv = List.map (fun ce -> ce fr) cargs in
        let f = st.rp.funcs.(i) in
        let spills = call_prelude st f n_args in
        let callee_frame = make_frame f in
        List.iter2
          (fun slot v ->
            let v = if f.instrumented then v else strip_bounds v in
            Array.unsafe_set callee_frame.vars slot v)
          f.params argv;
        run_body st f (Array.unsafe_get env.fbodies i) callee_frame spills)

(* ---- statements ----------------------------------------------------- *)

(* [compile_stmt c s next] returns the closure for [s] with its
   successor [next] pre-linked: straight-line code is one tail call per
   statement, no dispatch. *)
and compile_stmt c (s : R.stmt) (next : ucode) : ucode =
  let st = c.env.st in
  match s with
  | R.Let { slot; k; e } -> (
    match k with
    | R.K_i64 ->
      let ce = compile_expr_i c e in
      fun fr ->
        let x = ce fr in
        base st 1;
        Array.unsafe_set fr.vars slot (VI x);
        next fr
    | R.K_i32 ->
      let ce = compile_expr_i c e in
      fun fr ->
        let x = ce fr in
        base st 1;
        Array.unsafe_set fr.vars slot (VI (sext x 4));
        next fr
    | R.K_i16 ->
      let ce = compile_expr_i c e in
      fun fr ->
        let x = ce fr in
        base st 1;
        Array.unsafe_set fr.vars slot (VI (sext x 2));
        next fr
    | R.K_i8 ->
      let ce = compile_expr_i c e in
      fun fr ->
        let x = ce fr in
        base st 1;
        Array.unsafe_set fr.vars slot (VI (sext x 1));
        next fr
    | k ->
      let ce = compile_expr c e in
      fun fr ->
        let v = coerce k (ce fr) in
        base st 1;
        Array.unsafe_set fr.vars slot v;
        next fr)
  | R.Assign { slot; e } ->
    let ce = compile_expr c e in
    fun fr ->
      let v = ce fr in
      base st 1;
      if Array.unsafe_get fr.vars slot == unbound then
        abort ("assign to unbound variable " ^ fr.rf.var_names.(slot))
      else Array.unsafe_set fr.vars slot v;
      next fr
  | R.Decl_local { slot; size; tyid } ->
    let footprint =
      if c.instr then Meta.Local_offset.footprint ~size
      else Ifp_util.Bits.align_up size 16
    in
    fun fr ->
      (if Int64.equal fr.local_addr.(slot) local_unset then begin
         let addr =
           Ifp_util.Bits.align_down64
             (Int64.sub st.sp (Int64.of_int footprint))
             16
         in
         if Int64.compare addr st.stack_limit < 0 then
           raise (Abort Stack_overflow);
         st.sp <- addr;
         base st 1;
         fr.local_addr.(slot) <- addr;
         fr.local_tagged.(slot) <- addr;
         fr.local_size.(slot) <- size;
         fr.local_tyid.(slot) <- tyid
       end);
      next fr
  | R.Store { cls = R.Cls_int; bytes; addr; v } ->
    compile_access c addr ~size:bytes
      (Store (compile_expr_i c v, stage_store st bytes, next))
  | R.Store { cls; bytes; addr; v } ->
    compile_access c addr ~size:bytes
      (Store (compile_expr c v, stage_store_value st ~instr:c.instr cls bytes, next))
  | R.Store_global { g; cls = R.Cls_int; bytes; e } ->
    let ce = compile_expr_i c e in
    let go = st.globals.(g) in
    let stw = stage_store st bytes in
    (* the global's address is static, so its tag strip stages too *)
    let ga = Int64.logand go.gaddr addr_mask in
    fun fr ->
      let raw = ce fr in
      stw ga raw;
      next fr
  | R.Store_global { g; cls; bytes; e } ->
    let ce = compile_expr c e in
    let go = st.globals.(g) in
    let wr = stage_store_value st ~instr:c.instr cls bytes in
    let ga = Int64.logand go.gaddr addr_mask in
    fun fr ->
      wr ga (ce fr);
      next fr
  | R.If (cond, t, e) ->
    let cc = compile_cond c cond in
    let ct = compile_seq c t next and ce = compile_seq c e next in
    fun fr ->
      base st 2 (* compare + branch *);
      if cc fr then ct fr else ce fr
  | R.While (cond, body) ->
    let cc = compile_cond c cond in
    let cbody = compile_seq c body nop_u in
    fun fr ->
      let rec loop () =
        budget_check st;
        base st 2 (* compare + branch *);
        if cc fr then begin
          (match cbody fr with () -> () | exception Continue_exc -> ());
          loop ()
        end
      in
      (try loop () with Break_exc -> ());
      next fr
  | R.Return None ->
    fun _ -> raise (Return_exc (VI 0L))
  | R.Return (Some e) ->
    let ce = compile_expr c e in
    fun fr -> raise (Return_exc (ce fr))
  | R.Expr e ->
    let ce = compile_expr c e in
    fun fr ->
      ignore (ce fr);
      next fr
  | R.Free e ->
    let ce = compile_expr c e in
    fun fr ->
      let w, _ = as_ptr (ce fr) in
      let cost = st.allocator.free w in
      charge_alloc_cost st cost;
      next fr
  | R.Break -> fun _ -> raise Break_exc
  | R.Continue -> fun _ -> raise Continue_exc
  | R.Ifp_register_local { slot; site = _ } ->
    fun fr ->
      register_local st fr slot;
      next fr
  | R.Ifp_deregister_local slot ->
    fun fr ->
      deregister_local st fr slot;
      next fr
  | R.Bad_store_global { e; msg } ->
    let ce = compile_expr c e in
    fun fr ->
      ignore (ce fr);
      abort msg

and compile_seq c stmts (next : ucode) : ucode =
  match stmts with
  | [] -> next
  | s :: rest -> compile_stmt c s (compile_seq c rest next)

(* ---- program -------------------------------------------------------- *)

(* The only place the fault injector is read: it picks each function's
   check, so armed runs compile the same closures with [armed_check]. *)
let compile_func env (f : R.func) : ucode =
  let st = env.st in
  let instr = ifp_mode st && f.instrumented in
  let check =
    match st.inj with
    | Some inj -> Armed (armed_check st inj ~instr)
    | None -> if instr then Checked else Unchecked
  in
  compile_seq { env; instr; check } f.body nop_u

let program (st : state) : env =
  let n = Array.length st.rp.funcs in
  let env =
    {
      st;
      fbodies = Array.make n nop_u;
      gb = Bounds.no_bounds;
      pcharge = stage_fetch_charge st;
    }
  in
  Array.iteri (fun i f -> env.fbodies.(i) <- compile_func env f) st.rp.funcs;
  env

(* the compiled entry point for [main] (no call prelude — matching the
   interpreter, which runs main's body directly) *)
let main_code (env : env) : ucode = env.fbodies.(env.st.rp.main)
