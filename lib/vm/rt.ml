(* Shared VM runtime: the execution substrate both engines run on.

   Everything here is engine-independent — configuration, the machine
   state record, cost charging, checked memory access, promote, local
   object registration, the front end that prepares a program into an
   image (for all three engines), program setup and the run scaffolding.
   {!Vm_slot} (the slot-resolved interpreter) and {!Vm_closure} (the
   closure-compiled engine) are thin recursion strategies over these
   primitives; keeping the primitives in one module is what makes the
   engines bit-identical on every counter by construction rather than
   by parallel maintenance.

   This module deliberately has no [.mli]: it is the internal widest
   interface of the [ifp_vm] library. The supported public surface is
   {!Vm}'s. *)

module Ctype = Ifp_types.Ctype
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
module R = Ifp_compiler.Resolve
module Fault = Ifp_faultinject.Fault

type variant = Baseline | Ifp | Ifp_no_promote

type alloc_kind = Alloc_baseline | Alloc_wrapped | Alloc_subheap | Alloc_mixed

(* Engines are observationally identical (outcome, counters, traces,
   output), differing only in host-side execution strategy — which is
   why [engine] is deliberately excluded from campaign job fingerprints:
   a cached result is valid whichever engine produced it. *)
type engine = Eng_vm | Eng_ref | Eng_closure

type config = {
  variant : variant;
  alloc : alloc_kind;
  seed : int64;
  max_cycles : int;
  narrowing : bool;
  infer_alloc_types : bool;
  trace_limit : int;
  fault_plan : Fault.plan option;
  engine : engine;
  temporal : bool;
      (* free-epoch generations (off by default): metadata records carry
         a generation and freed flag mirrored into the pointer tag, frees
         quarantine instead of recycling, and stale accesses trap with
         temporal causes. With it off every encoding, cost and output is
         bit-identical to the spatial-only design. *)
}

type trace_event =
  | T_promote of { ptr : int64; outcome : string; bounds : string }
  | T_register of { what : string; ptr : int64; size : int }
  | T_deregister of { what : string; ptr : int64 }
  | T_trap of string

let default_config =
  {
    variant = Baseline;
    alloc = Alloc_baseline;
    seed = 42L;
    max_cycles = 4_000_000_000;
    narrowing = true;
    infer_alloc_types = false;
    trace_limit = 0;
    fault_plan = None;
    engine = Eng_closure;
    temporal = false;
  }

let baseline = default_config
let ifp_wrapped = { default_config with variant = Ifp; alloc = Alloc_wrapped }
let ifp_subheap = { default_config with variant = Ifp; alloc = Alloc_subheap }
let no_promote alloc = { default_config with variant = Ifp_no_promote; alloc }

let no_narrowing alloc =
  { default_config with variant = Ifp; alloc; narrowing = false }

let ifp_mixed = { default_config with variant = Ifp; alloc = Alloc_mixed }

type abort_reason =
  | Budget_exhausted
  | Stack_overflow
  | Out_of_memory of string
  | Program_error of string
  | Host_failure of string

let abort_reason_string = function
  | Budget_exhausted -> "cycle budget exceeded"
  | Stack_overflow -> "stack overflow"
  | Out_of_memory m -> "OOM: " ^ m
  | Program_error m -> m
  | Host_failure m -> m

type outcome = Finished of int64 | Trapped of Trap.t | Aborted of abort_reason

type result = {
  outcome : outcome;
  counters : Counters.t;
  alloc_stats : Alloc.stats;
  alloc_extra : (string * int) list;
  cache_accesses : int;
  cache_misses : int;
  mem_footprint : int;
  output : string list;
  instrument_report : Instrument.report option;
  trace : trace_event list;  (** first [trace_limit] IFP events, in order *)
  fault_injections : string list;
      (** corruptions performed by the armed fault injector, in order;
          always [[]] when [fault_plan = None] *)
}

(* ------------------------------------------------------------------ *)

type value = VI of int64 | VF of float | VP of int64 * Bounds.t

exception Return_exc of value
exception Break_exc
exception Continue_exc
exception Abort of abort_reason

(* runtime-detected ill-formed IR or guest misuse *)
let abort msg = raise (Abort (Program_error msg))

(* Slot sentinels. [unbound] marks a variable slot whose Let never
   executed (reachable post-typecheck through a non-taken branch); it is
   detected by physical equality, so any VI a program computes — even
   with the same payload — is a distinct block and never mistaken for
   it. [local_unset] marks an undeclared stack-local slot; real local
   addresses are positive and below 2^48. *)
let unbound : value = VI 0x756E626F756E64L
let local_unset = Int64.min_int

(* shared immutable results for the hot paths; values are never mutated
   so sharing is invisible *)
let vi_zero = VI 0L
let vi_one = VI 1L
let null_ptr = VP (0L, Bounds.No_bounds)

let vi_bool b = if b then vi_one else vi_zero

type gobj = {
  gaddr : int64;
  gsize : int;
  mutable gtagged : int64;
  mutable gbounds : Bounds.t;
}

(* Frames are flat slot arrays: variable slots hold values directly,
   stack-local slots hold the decl-time address/size/type-id and the
   registration-tagged pointer. All indices were assigned by
   {!Ifp_compiler.Resolve}, so in-bounds by construction. *)
type frame = {
  vars : value array;
  local_addr : int64 array;  (* local_unset until the Decl_local runs *)
  local_tagged : int64 array;
  local_size : int array;
  local_tyid : int array;
  instrumented : bool;
  rf : R.func;  (* slot -> name tables for diagnostics *)
}

(* Metadata fetches of the promote in flight, as the promote core
   reports them: address (its low 63 bits; a charge reads only the low
   48) and size. They are charged once the promote returns, so a
   [Memory.Fault] escaping the layout walk leaves no metadata charge —
   as when [Promote.run]'s fetch list was charged after the call. *)
type fetch_buf = {
  mutable fb_addr : int array;
  mutable fb_bytes : int array;
  mutable fb_n : int;
}

let fetch_buf_push b addr bytes =
  let n = b.fb_n in
  if n >= Array.length b.fb_addr then begin
    let grow a = Array.append a (Array.make (Array.length a) 0) in
    b.fb_addr <- grow b.fb_addr;
    b.fb_bytes <- grow b.fb_bytes
  end;
  Array.unsafe_set b.fb_addr n (Int64.to_int addr);
  Array.unsafe_set b.fb_bytes n bytes;
  b.fb_n <- n + 1

(* ---- the machine ------------------------------------------------- *)

(* The simulated machine of one run, whatever the engine: memory with
   the fixed regions mapped, the L1 model, the metadata context (IFP
   variants only), the allocator the config names and the armed fault
   injector. Every engine's state carries these same five fields. *)
type machine = {
  mem : Memory.t;
  cache : Cache.t;
  meta : Meta.t option;
  allocator : Alloc.t;
  inj : Fault.t option;
}

let machine (config : config) ~tenv =
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
      Ifp_alloc.Wrapped.create ~meta ~tenv ~base_alloc
    | _, Alloc_subheap ->
      let meta = Option.get meta in
      Ifp_alloc.Subheap_alloc.create ~meta ~tenv ~memory:mem
        ~base:Memmap.heap_base ~size_log2:Memmap.heap_size_log2
    | _, Alloc_mixed ->
      (* split the heap: buddy arena in the lower half (naturally aligned
         to its size), baseline/wrapped heap in the upper half *)
      let meta = Option.get meta in
      let half_log2 = Memmap.heap_size_log2 - 1 in
      let subheap =
        Ifp_alloc.Subheap_alloc.create ~meta ~tenv ~memory:mem
          ~base:Memmap.heap_base ~size_log2:half_log2
      in
      let base_alloc =
        Ifp_alloc.Baseline.create ~memory:mem
          ~base:(Int64.add Memmap.heap_base (Int64.of_int (1 lsl half_log2)))
          ~size:(1 lsl half_log2)
      in
      let wrapped = Ifp_alloc.Wrapped.create ~meta ~tenv ~base_alloc in
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
  { mem; cache; meta; allocator; inj }

(* The result of a run on machine [m]; [output] and [trace] are
   reversed, as the engines accumulate them. Every run of every engine
   ends here, so this is where the machine's pages and L1 arrays go back
   to the domain for its next run, once the statistics are read. *)
let result_of (m : machine) ~outcome ~counters ~output ~trace ~report =
  let alloc_stats = m.allocator.stats () in
  let layout_bytes =
    match m.meta with Some meta -> Meta.layout_bytes_used meta | None -> 0
  in
  let r =
    {
      outcome;
      counters;
      alloc_stats;
      alloc_extra = m.allocator.extra_stats ();
      cache_accesses = Cache.accesses m.cache;
      cache_misses = Cache.misses m.cache;
      mem_footprint = alloc_stats.footprint_bytes + layout_bytes;
      output = List.rev output;
      instrument_report = report;
      trace = List.rev trace;
      fault_injections =
        (match m.inj with Some i -> Fault.injections i | None -> []);
    }
  in
  Memory.release m.mem;
  Cache.release m.cache;
  r

type state = {
  cfg : config;
  rp : R.program;
  tenv : Ctype.tenv;
  mem : Memory.t;
  cache : Cache.t;
  meta : Meta.t option;
  allocator : Alloc.t;
  c : Counters.t;
  globals : gobj array;  (* parallel to rp.globals *)
  layout_ptrs : int64 array;
      (* per-run interned-layout cache indexed by R type id; -1 = unset.
         Meta.intern_layout is idempotent per Meta instance, so caching
         its result is observationally transparent. *)
  inj : Fault.t option;
  mutable sp : int64;
  stack_limit : int64;
  mutable depth : int;  (* guest calls active below main *)
  mutable out : string list;
  mutable out_lines : int;
  mutable trace : trace_event list; (* reversed *)
  mutable trace_left : int;
  pout : Promote.out;  (* result cell of every promote in the run *)
  pbuf : fetch_buf;
  pfetch : int64 -> int -> unit;  (* the core's fetch callback: into [pbuf] *)
}

let ifp_mode st = st.cfg.variant <> Baseline

(* Guest output lives in host memory, and a printing loop fills it long
   before any cycle budget trips: past this many lines the run aborts. *)
let max_output_lines = 65_536

let output_overflow =
  Out_of_memory
    (Printf.sprintf "guest output exceeds %d lines" max_output_lines)

let print st line =
  if st.out_lines >= max_output_lines then raise (Abort output_overflow);
  st.out_lines <- st.out_lines + 1;
  st.out <- line :: st.out

(* Call sites guard on [trace_left] before building the event so the
   common tracing-off run allocates nothing. *)
let trace_add st ev =
  st.trace_left <- st.trace_left - 1;
  st.trace <- ev :: st.trace

let trace st ev = if st.trace_left > 0 then trace_add st (ev st)

(* ---- cost charging ------------------------------------------------ *)

let budget_check st =
  if st.c.cycles > st.cfg.max_cycles then raise (Abort Budget_exhausted)

let base st n =
  st.c.base_instrs <- st.c.base_instrs + n;
  st.c.cycles <- st.c.cycles + n

let cycles st n = st.c.cycles <- st.c.cycles + n

let[@inline] charge_ifp st k n =
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

(* Per-run layout pointer for a resolve-assigned type id: intern on
   first use, then serve from the flat cache. *)
let layout_ptr_of st tyid =
  let p = st.layout_ptrs.(tyid) in
  if not (Int64.equal p (-1L)) then p
  else begin
    let meta = match st.meta with Some m -> m | None -> assert false in
    let p = Meta.intern_layout meta st.tenv st.rp.types.(tyid) in
    st.layout_ptrs.(tyid) <- p;
    p
  end

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

let do_load st frame cls bytes addrv =
  let w, b = as_ptr addrv in
  let b = injected_bounds st w b ~size:bytes in
  checked_access st frame w b ~size:bytes ~is_store:false;
  let a = Tag.addr w in
  charge_load st a bytes;
  match Memory.read_size st.mem a ~bytes with
  | raw -> (
    match cls with
    | R.Cls_ptr -> VP (raw, Bounds.no_bounds)
    | R.Cls_f64 -> VF (Int64.float_of_bits raw)
    | R.Cls_int -> VI (sext raw bytes))
  | exception Memory.Fault (_, fa) -> Trap.raise_trap (Trap.Memory_fault fa)

(* raw bits a value stores as, under a scalar class. For pointer slots
   the demote path applies: the tagged word goes to memory, the bounds
   register is dropped, ifpextract refreshes poison bits. *)
let store_raw st frame cls v =
  match (cls, v) with
  | R.Cls_f64, _ -> Int64.bits_of_float (as_float v)
  | R.Cls_ptr, VP (pw, (Bounds.Bounds _ as pb)) when ifp_mode st && frame.instrumented ->
    charge_ifp st Insn.Ifpextract 1;
    Insn.ifpextract pw ~bounds:pb
  | R.Cls_ptr, VP (pw, _) -> pw
  | _, v -> as_int v

let do_store st frame cls bytes addrv v =
  let w, b = as_ptr addrv in
  let b = injected_bounds st w b ~size:bytes in
  checked_access st frame w b ~size:bytes ~is_store:true;
  let a = Tag.addr w in
  let raw = store_raw st frame cls v in
  charge_store st a bytes;
  match Memory.write_size st.mem a ~bytes raw with
  | () -> ()
  | exception Memory.Fault (_, fa) -> Trap.raise_trap (Trap.Memory_fault fa)

let do_load_int st frame bytes addrv =
  let w, b =
    match addrv with
    | VP (w, b) -> (w, b)
    | VI w -> (w, Bounds.no_bounds)
    | VF _ -> abort "float used as pointer"
  in
  let b = injected_bounds st w b ~size:bytes in
  checked_access st frame w b ~size:bytes ~is_store:false;
  let a = Tag.addr w in
  charge_load st a bytes;
  match Memory.read_size st.mem a ~bytes with
  | raw -> sext raw bytes
  | exception Memory.Fault (_, fa) -> Trap.raise_trap (Trap.Memory_fault fa)

(* Integer store with the raw word already computed: what [do_store]
   does for [Cls_int] (whose raw computation has no observable
   effects), minus the value round-trip. *)
let do_store_int st frame bytes addrv raw =
  let w, b =
    match addrv with
    | VP (w, b) -> (w, b)
    | VI w -> (w, Bounds.no_bounds)
    | VF _ -> abort "float used as pointer"
  in
  let b = injected_bounds st w b ~size:bytes in
  checked_access st frame w b ~size:bytes ~is_store:true;
  let a = Tag.addr w in
  charge_store st a bytes;
  match Memory.write_size st.mem a ~bytes raw with
  | () -> ()
  | exception Memory.Fault (_, fa) -> Trap.raise_trap (Trap.Memory_fault fa)

(* ---- promote -------------------------------------------------------- *)

(* Charge the buffered promote fetches through the library cache model;
   the closure engine passes a staged twin. *)
let charge_fetches st =
  let b = st.pbuf in
  for i = 0 to b.fb_n - 1 do
    mem_cycles st
      (Int64.of_int (Array.unsafe_get b.fb_addr i))
      (Array.unsafe_get b.fb_bytes i) Cache.Load
  done

(* The promote core writes into [st.pout] and reports its fetches into
   [st.pbuf]; [charge] bills them once it returns. *)
let eval_promote_with st ~charge v =
  let w =
    match v with
    | VP (w, _) | VI w -> w
    | VF _ -> abort "float used as pointer"
  in
  let w = match st.inj with Some inj -> Fault.on_promote inj w | None -> w in
  match st.cfg.variant with
  | Baseline -> v
  | Ifp_no_promote ->
    charge_ifp st Insn.Promote 1;
    VP (w, Bounds.no_bounds)
  | Ifp ->
    charge_ifp st Insn.Promote 1;
    if Tag.subobj w > 0 then st.c.promotes_subobj <- st.c.promotes_subobj + 1;
    let meta = match st.meta with Some m -> m | None -> assert false in
    let o = st.pout in
    st.pbuf.fb_n <- 0;
    Promote.promote ~narrow:st.cfg.narrowing meta o ~fetch:st.pfetch w;
    charge st;
    cycles st
      ((o.o_walk_elems * Cost.walk_per_elem)
      + (o.o_divisions * Cost.div)
      + (o.o_mac_checks * Cost.mac_check));
    let outcome = o.o_outcome in
    if st.trace_left > 0 then
      trace_add st
        (T_promote
          {
            ptr = w;
            outcome =
              (match outcome with
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
            bounds = Format.asprintf "%a" Bounds.pp o.o_bounds;
          });
    (* Adversarial mode: with a fault injector armed, an invalid-metadata
       promote traps architecturally (the paper's §3.3 MAC-mismatch trap)
       instead of deferring detection to the poisoned dereference — this
       is the configuration whose trap paths the fault campaign measures.
       Ordinary runs keep the deferred-poison semantics unchanged. *)
    (match (outcome, st.inj) with
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
    (match outcome with
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
    VP (o.o_ptr, o.o_bounds)

let eval_promote st v = eval_promote_with st ~charge:charge_fetches v

(* ---- local object registration -------------------------------------- *)

(* The layout pointer resolves through the per-run tyid table
   ({!layout_ptr_of}): host-side work with no charges. *)
let register_local st frame slot =
  let addr = frame.local_addr.(slot) in
  if Int64.equal addr local_unset then
    abort ("register of unknown local " ^ frame.rf.local_names.(slot));
  let layout_ptr = layout_ptr_of st frame.local_tyid.(slot) in
  let meta = match st.meta with Some m -> m | None -> assert false in
  let size = frame.local_size.(slot) in
  let has_layout = not (Int64.equal layout_ptr 0L) in
  st.c.local_objs <- st.c.local_objs + 1;
  if has_layout then st.c.local_objs_layout <- st.c.local_objs_layout + 1;
  if st.trace_left > 0 then
    trace_add st
      (T_register
         { what = "local:" ^ frame.rf.local_names.(slot); ptr = addr; size });
  if Meta.Local_offset.fits ~size then begin
    let p = Meta.Local_offset.register meta ~base:addr ~size ~layout_ptr in
    frame.local_tagged.(slot) <- p;
    base st 6;
    charge_ifp st Insn.Ifpmac 1;
    charge_ifp st Insn.Ifpmd 1;
    replay_touches st [ (Tag.metadata_addr_local_offset p, 16) ]
  end
  else
    match Meta.Global_table.register meta ~base:addr ~size ~layout_ptr with
    | Some p ->
      frame.local_tagged.(slot) <- p;
      base st 50;
      charge_ifp st Insn.Ifpmd 1
    | None ->
      frame.local_tagged.(slot) <- addr;
      base st 20

let deregister_local st frame slot =
  if Int64.equal frame.local_addr.(slot) local_unset then ()
  else begin
    let meta = match st.meta with Some m -> m | None -> assert false in
    let p = frame.local_tagged.(slot) in
    if st.trace_left > 0 then
      trace_add st
        (T_deregister { what = "local:" ^ frame.rf.local_names.(slot); ptr = p });
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
    | Tag.Legacy | Tag.Subheap -> ()
  end

(* ---- frames, calls, shared expression tails ------------------------- *)

(* Shared zero-length arrays: a function with no stack locals (the
   common case) gets frames whose local tables are these never-written
   empties instead of four fresh allocations per call. *)
let empty_i64 : int64 array = [||]
let empty_int : int array = [||]
let empty_vals : value array = [||]

(* A function's variable slots, all [unbound]. The common small sizes
   are array literals, which allocate inline on the minor heap without
   [Array.make]'s C call. *)
let make_vars n =
  match n with
  | 0 -> empty_vals
  | 1 -> [| unbound |]
  | 2 -> [| unbound; unbound |]
  | 3 -> [| unbound; unbound; unbound |]
  | 4 -> [| unbound; unbound; unbound; unbound |]
  | 5 -> [| unbound; unbound; unbound; unbound; unbound |]
  | 6 -> [| unbound; unbound; unbound; unbound; unbound; unbound |]
  | 7 -> [| unbound; unbound; unbound; unbound; unbound; unbound; unbound |]
  | 8 -> [| unbound; unbound; unbound; unbound; unbound; unbound; unbound; unbound |]
  | n -> Array.make n unbound

let make_frame (f : R.func) =
  if f.n_locals = 0 then
    {
      vars = make_vars f.n_vars;
      local_addr = empty_i64;
      local_tagged = empty_i64;
      local_size = empty_int;
      local_tyid = empty_int;
      instrumented = f.instrumented;
      rf = f;
    }
  else
    {
      vars = make_vars f.n_vars;
      local_addr = Array.make f.n_locals local_unset;
      local_tagged = Array.make f.n_locals 0L;
      local_size = Array.make f.n_locals 0;
      local_tyid = Array.make f.n_locals 0;
      instrumented = f.instrumented;
      rf = f;
    }

let eval_binop st op a b =
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
    vi_bool (f (Int64.compare x y) 0)
  in
  let fop f =
    base st 1;
    cycles st (Cost.fp - 1);
    VF (f (as_float a) (as_float b))
  in
  let fcmp f =
    base st 1;
    cycles st (Cost.fp - 1);
    vi_bool (f (as_float a) (as_float b))
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

let eval_unop st op a =
  base st 1;
  match op with
  | Ir.Neg -> VI (Int64.neg (as_int a))
  | Ir.BNot -> VI (Int64.lognot (as_int a))
  | Ir.LNot -> vi_bool (Int64.equal (as_int a) 0L)
  | Ir.FNeg ->
    cycles st (Cost.fp - 1);
    VF (-.as_float a)
  | Ir.I2F ->
    cycles st (Cost.fp - 1);
    VF (Int64.to_float (as_int a))
  | Ir.F2I ->
    cycles st (Cost.fp - 1);
    VI (Int64.of_float (as_float a))

let gep_finish st frame w b idx_delta ~delta ~dyn ~nb_lo ~nb_hi ~have_nb =
  if ifp_mode st && frame.instrumented then begin
    (* narrow to the last field only when it lies inside the incoming
       bounds: a field outside them keeps them, so [ifpadd] poisons *)
    let out_bounds =
      match (b, have_nb) with
      | Bounds.Bounds { lo; hi }, true -> (
        match Bounds.make ~lo:nb_lo ~hi:nb_hi with
        | Bounds.Bounds n as nb when lo <= n.lo && n.hi <= hi -> nb
        | Bounds.Bounds _ | Bounds.No_bounds -> b)
      | (Bounds.Bounds _ | Bounds.No_bounds), _ -> b
    in
    (* the muls for dynamic indexes stay ordinary ALU work; the final add
       becomes ifpadd (address + tag update) *)
    if dyn > 0 then begin
      st.c.base_instrs <- st.c.base_instrs + dyn;
      cycles st (dyn * Cost.mul)
    end;
    charge_ifp st Insn.Ifpadd 1;
    let w' = Insn.ifpadd w ~delta ~bounds:out_bounds in
    let w' =
      if idx_delta > 0 then begin
        charge_ifp st Insn.Ifpidx 1;
        Insn.ifpidx w' idx_delta
      end
      else w'
    in
    if not (Bounds.equal out_bounds b) then charge_ifp st Insn.Ifpbnd 1;
    VP (w', out_bounds)
  end
  else begin
    if dyn > 0 then begin
      st.c.base_instrs <- st.c.base_instrs + (dyn * 2);
      cycles st (dyn * (Cost.mul + Cost.alu))
    end;
    VP (Int64.add w delta, Bounds.no_bounds)
  end

let do_malloc st frame ~size ~cty ~layout_multi =
  let cty_for_alloc = if ifp_mode st && frame.instrumented then cty else None in
  let ptr, c = st.allocator.malloc ~size ~cty:cty_for_alloc in
  charge_alloc_cost st c;
  st.c.heap_objs <- st.c.heap_objs + 1;
  (match cty_for_alloc with
  | Some _ when layout_multi ->
    st.c.heap_objs_layout <- st.c.heap_objs_layout + 1
  | Some _ | None -> ());
  if ifp_mode st && frame.instrumented then begin
    charge_ifp st Insn.Ifpbnd 1;
    VP (ptr, Bounds.of_base_size (Tag.addr ptr) size)
  end
  else VP (ptr, Bounds.no_bounds)

(* every engine's call path enters here; the matching [depth] decrement
   sits where the callee returns and [sp] is restored *)
let call_prelude st (f : R.func) n_args =
  if st.depth >= Memmap.max_call_depth then raise (Abort Stack_overflow);
  st.depth <- st.depth + 1;
  budget_check st;
  (* call + ret + prologue/epilogue (ra/s-reg save, sp adjust) *)
  base st (6 + n_args);
  cycles st (Cost.call - 1);
  let spills =
    if ifp_mode st && f.instrumented && f.has_calls then Ifp_util.Bits.imin 4 f.ptr_regs
    else 0
  in
  if spills > 0 then charge_ifp st Insn.Stbnd spills;
  spills

let strip_bounds = function
  | VP (w, _) -> VP (w, Bounds.no_bounds)
  | v -> v

let coerce k v =
  match k with
  | R.K_i8 -> VI (sext (as_int v) 1)
  | R.K_i16 -> VI (sext (as_int v) 2)
  | R.K_i32 -> VI (sext (as_int v) 4)
  | R.K_i64 -> VI (as_int v)
  | R.K_f64 -> VF (as_float v)
  | R.K_ptr -> (
    match v with VP _ -> v | VI w -> VP (w, Bounds.no_bounds) | VF _ -> v)

(* ---- program setup --------------------------------------------------- *)

let setup_globals st =
  let bump = ref Memmap.globals_base in
  Array.iteri
    (fun i (g : R.rglobal) ->
      let size = Ifp_util.Bits.imax 1 g.gsize in
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
      (if ifp_mode st && g.gregistered then
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
      st.globals.(i) <- go)
    st.rp.globals

(* ---- the front end: prepare once, run many times ------------------- *)

(* What a prepared image depends on in its config: whether the program is
   instrumented, and how. Every other config field is read only by the
   run. *)
type front_end = Uninstrumented | Instrumented of { infer_alloc_types : bool }

let front_end_of (config : config) =
  match config.variant with
  | Baseline -> Uninstrumented
  | Ifp | Ifp_no_promote ->
    Instrumented { infer_alloc_types = config.infer_alloc_types }

(* A program as the engines run it: typechecked, instrumented when the
   key says so, and lowered to slots. Immutable, so any number of runs,
   on any engine and from any domain, may share one. *)
type image = {
  key : front_end;
  prog : Ir.program;  (* the (instrumented) IR, {!Vm_ref}'s input *)
  report : Instrument.report option;
  rp : R.program;  (* its slot lowering, every other engine's input *)
}

(* the only place in the library that typechecks, instruments and
   resolves *)
let prepare (config : config) (raw_prog : Ir.program) =
  Typecheck.check_program raw_prog;
  let key = front_end_of config in
  let prog, report =
    match key with
    | Uninstrumented -> (raw_prog, None)
    | Instrumented { infer_alloc_types } ->
      let p, r = Instrument.run ~config:{ Instrument.infer_alloc_types } raw_prog in
      (p, Some r)
  in
  { key; prog; report; rp = R.run prog }

(* ---- run scaffolding ------------------------------------------------- *)

(* Everything around the engine: build the machine, run globals setup,
   dispatch into the engine's [main_body] (which raises the usual control
   exceptions), and assemble the result. [main_body st frame f] must
   execute [f]'s body in [frame]; a normal return means main fell off the
   end. The caller has checked that [image] was prepared for [config]. *)
let run_with ~(config : config) (image : image)
    ~(main_body : state -> frame -> R.func -> unit) =
  let { prog; report; rp; key = _ } = image in
  let m = machine config ~tenv:prog.tenv in
  let dummy_gobj =
    { gaddr = 0L; gsize = 0; gtagged = 0L; gbounds = Bounds.no_bounds }
  in
  let pbuf =
    { fb_addr = Array.make 16 0; fb_bytes = Array.make 16 0; fb_n = 0 }
  in
  let st =
    {
      cfg = config;
      rp;
      tenv = prog.tenv;
      mem = m.mem;
      cache = m.cache;
      meta = m.meta;
      allocator = m.allocator;
      inj = m.inj;
      c = Counters.create ();
      globals = Array.make (Array.length rp.globals) dummy_gobj;
      layout_ptrs = Array.make (Array.length rp.types) (-1L);
      sp = Memmap.stack_top;
      stack_limit = Int64.sub Memmap.stack_top (Int64.of_int Memmap.stack_size);
      depth = 0;
      out = [];
      out_lines = 0;
      trace = [];
      trace_left = config.trace_limit;
      pout = Promote.create_out ();
      pbuf;
      pfetch = fetch_buf_push pbuf;
    }
  in
  let outcome =
    match setup_globals st with
    | () -> (
      if rp.main < 0 then Aborted (Program_error "no main function")
      else
        let mainf = rp.funcs.(rp.main) in
        let frame = make_frame mainf in
        match main_body st frame mainf with
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
          (* allocator-level detection (baseline heap header check):
             modeled as the glibc-style abort, not an IFP trap *)
          Aborted
            (Program_error (Printf.sprintf "double free detected by allocator (0x%Lx)" p)))
    | exception Abort msg -> Aborted msg
  in
  result_of m ~outcome ~counters:st.c ~output:st.out ~trace:st.trace ~report
