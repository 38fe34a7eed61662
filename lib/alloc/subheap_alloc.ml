open Alloc_intf
module Meta = Ifp_metadata.Meta
module Tag = Ifp_isa.Tag
module Trap = Ifp_isa.Trap
module Memory = Ifp_machine.Memory

let min_block_log2 = 12
let min_slots_per_block = 8

type block = {
  bbase : int64;
  nslots : int;
  mutable free_slots : int list;
  mutable next_uninit : int;
  mutable used : int;
}

type pool = {
  obj_size : int;
  slot_size : int;
  layout_ptr : int64;
  block_log2 : int;
  creg : int;
  mutable partial : block list; (* blocks with at least one free slot *)
  mutable n_blocks : int;
}

type state = {
  meta : Meta.t;
  tenv : Ifp_types.Ctype.tenv;
  buddy : Buddy.t;
  base : int64;
  limit : int64;
  max_block_log2 : int;
  slot_start : int;
      (* metadata occupies [0, slot_start) of each block: 32 B spatial,
         64 B in temporal mode (header + freed-slot bitmap) *)
  temporal : bool;
  mutable quarantined : int;
  pools : (int * int64, pool) Hashtbl.t;
  cregs_by_log2 : (int, int) Hashtbl.t;
  mutable next_creg : int;
  blocks : (int64, pool * block) Hashtbl.t;
  huge : (int64, int) Hashtbl.t; (* base -> block_log2 of global-table fallbacks *)
  stats : stats;
}

let creg_for st log2 =
  match Hashtbl.find_opt st.cregs_by_log2 log2 with
  | Some i -> Some i
  | None ->
    if st.next_creg >= Meta.Subheap.n_cregs then None
    else begin
      let i = st.next_creg in
      st.next_creg <- i + 1;
      Meta.Subheap.set_creg st.meta i
        (Some { Meta.Subheap.block_size_log2 = log2; metadata_offset = 0L });
      Hashtbl.replace st.cregs_by_log2 log2 i;
      Some i
    end

let max_pooled_slot = 4096

let block_log2_for st slot_size =
  let rec go l =
    if l > st.max_block_log2 then None
    else if ((1 lsl l) - st.slot_start) / slot_size >= min_slots_per_block then
      Some l
    else go (l + 1)
  in
  go min_block_log2

let new_block st pool =
  match Buddy.alloc st.buddy pool.block_log2 with
  | None -> raise (Out_of_memory "subheap arena exhausted")
  | Some bbase ->
    let capacity = (1 lsl pool.block_log2) - st.slot_start in
    let nslots = capacity / pool.slot_size in
    (* the temporal freed-slot bitmap is 256 bits wide *)
    let nslots = if st.temporal then Ifp_util.Bits.imin nslots 256 else nslots in
    Meta.Subheap.write_block_metadata st.meta ~creg:pool.creg ~block_base:bbase
      ~slot_start:st.slot_start
      ~slot_end:(st.slot_start + (nslots * pool.slot_size))
      ~slot_size:pool.slot_size ~obj_size:pool.obj_size
      ~layout_ptr:pool.layout_ptr;
    let b = { bbase; nslots; free_slots = []; next_uninit = 0; used = 0 } in
    pool.partial <- b :: pool.partial;
    pool.n_blocks <- pool.n_blocks + 1;
    Hashtbl.replace st.blocks bbase (pool, b);
    b

let pool_for st ~size ~layout_ptr =
  let slot_size = Ifp_util.Bits.align_up (Ifp_util.Bits.imax size 16) 16 in
  if slot_size > max_pooled_slot then None
  else
  match Hashtbl.find_opt st.pools (size, layout_ptr) with
  | Some p -> Some p
  | None -> (
    match block_log2_for st slot_size with
    | None -> None
    | Some log2 -> (
      match creg_for st log2 with
      | None -> None
      | Some creg ->
        let p =
          {
            obj_size = size;
            slot_size;
            layout_ptr;
            block_log2 = log2;
            creg;
            partial = [];
            n_blocks = 0;
          }
        in
        Hashtbl.replace st.pools (size, layout_ptr) p;
        Some p))

let malloc st ~size ~cty =
  let size = Ifp_util.Bits.imax size 1 in
  let layout_ptr =
    match cty with
    | None -> 0L
    | Some ty -> Meta.intern_layout st.meta st.tenv ty
  in
  match pool_for st ~size ~layout_ptr with
  | Some pool ->
    let b, block_cost =
      match pool.partial with
      | b :: _ -> (b, zero_cost)
      | [] ->
        let b = new_block st pool in
        ( b,
          cost 130
            ~ifp_instrs:[ (Ifp_isa.Insn.Ifpmac, 1) ]
            ~touches:[ (b.bbase, Meta.Subheap.record_size st.meta) ] )
    in
    let slot =
      match b.free_slots with
      | s :: rest ->
        b.free_slots <- rest;
        s
      | [] ->
        let s = b.next_uninit in
        b.next_uninit <- s + 1;
        s
    in
    b.used <- b.used + 1;
    if b.used = b.nslots then
      pool.partial <- List.filter (fun x -> x != b) pool.partial;
    let addr =
      Int64.add b.bbase (Int64.of_int (st.slot_start + (slot * pool.slot_size)))
    in
    note_alloc st.stats ~payload:size
      ~footprint:(Buddy.high_water st.buddy)
      ~base:st.base;
    let ptr = Meta.Subheap.tag_pointer ~creg:pool.creg ~addr in
    let ptr =
      if st.temporal then
        Tag.with_gen ptr
          (Meta.Subheap.block_gen st.meta ~creg:pool.creg ~block_base:b.bbase)
      else ptr
    in
    (ptr, add_cost block_cost (cost 25 ~ifp_instrs:[ (Ifp_isa.Insn.Ifpmd, 1) ]))
  | None -> begin
    (* oversized allocation: raw buddy block + global-table registration *)
    let log2 = Ifp_util.Bits.imax min_block_log2 (Ifp_util.Bits.ceil_log2 size) in
    match Buddy.alloc st.buddy log2 with
    | None -> raise (Out_of_memory "subheap arena exhausted (huge)")
    | Some base ->
      Hashtbl.replace st.huge base log2;
      note_alloc st.stats ~payload:size
        ~footprint:(Buddy.high_water st.buddy)
        ~base:st.base;
      let ptr =
        match Meta.Global_table.register st.meta ~base ~size ~layout_ptr with
        | Some p -> p
        | None -> base
      in
      (ptr, cost 150 ~ifp_instrs:[ (Ifp_isa.Insn.Ifpmd, 1) ])
  end

let free st ptr =
  if Tag.is_null ptr then zero_cost
  else
    let addr = Tag.addr ptr in
    match Tag.scheme ptr with
    | Tag.Subheap -> (
      let creg_idx = Tag.creg_index ptr in
      match Meta.Subheap.get_creg st.meta creg_idx with
      | None -> zero_cost
      | Some { Meta.Subheap.block_size_log2; _ } -> (
        let bbase = Ifp_util.Bits.align_down64 addr (1 lsl block_size_log2) in
        match Hashtbl.find_opt st.blocks bbase with
        | None -> zero_cost
        | Some (pool, b) ->
          let off = Int64.to_int (Int64.sub addr bbase) - st.slot_start in
          let slot = off / pool.slot_size in
          if st.temporal then begin
            (* quarantine: the slot's bit in the freed bitmap is the
               free-epoch witness; the slot is never handed out again *)
            match
              Meta.Subheap.slot_mark_freed st.meta ~creg:pool.creg
                ~block_base:bbase ~slot
            with
            | `Already_freed -> Trap.raise_trap (Trap.Double_free { ptr })
            | `Invalid -> zero_cost
            | `Freed_ok ->
              st.quarantined <- st.quarantined + pool.slot_size;
              note_free st.stats ~payload:pool.obj_size;
              cost 25 ~touches:[ (Int64.add bbase 32L, 1) ]
          end
          else begin
            let was_full = b.used = b.nslots in
            b.free_slots <- slot :: b.free_slots;
            b.used <- b.used - 1;
            if was_full then pool.partial <- b :: pool.partial;
            note_free st.stats ~payload:pool.obj_size;
            cost 20
          end))
    | Tag.Global_table -> (
      match Hashtbl.find_opt st.huge addr with
      | None -> zero_cost
      | Some log2 ->
        if st.temporal then begin
          (* the huge entry stays so a re-free reaches the quarantined
             row and traps as a double free; the buddy block is never
             returned *)
          match Meta.Global_table.deregister_temporal st.meta ptr with
          | `Already_freed -> Trap.raise_trap (Trap.Double_free { ptr })
          | `Invalid -> zero_cost
          | `Freed_ok ->
            st.quarantined <- st.quarantined + (1 lsl log2);
            note_free st.stats ~payload:0;
            cost 60
        end
        else begin
          Hashtbl.remove st.huge addr;
          Meta.Global_table.deregister st.meta ptr;
          Buddy.free st.buddy addr log2;
          note_free st.stats ~payload:0;
          cost 60
        end)
    | Tag.Legacy | Tag.Local_offset -> (
      (* pointer not from this allocator (or fallback legacy) *)
      match Hashtbl.find_opt st.huge addr with
      | Some log2 ->
        Hashtbl.remove st.huge addr;
        if st.temporal then st.quarantined <- st.quarantined + (1 lsl log2)
        else Buddy.free st.buddy addr log2;
        note_free st.stats ~payload:0;
        cost 60
      | None -> zero_cost)

let create ~meta ~tenv ~memory ~base ~size_log2 =
  Memory.map memory ~base ~size:(1 lsl size_log2);
  let st =
    {
      meta;
      tenv;
      buddy = Buddy.create ~base ~size_log2 ~min_log2:min_block_log2;
      base;
      limit = Int64.add base (Int64.of_int (1 lsl size_log2));
      max_block_log2 = Ifp_util.Bits.imin 22 size_log2;
      slot_start = Meta.Subheap.record_size meta;
      temporal = Meta.temporal meta;
      quarantined = 0;
      pools = Hashtbl.create 64;
      cregs_by_log2 = Hashtbl.create 8;
      next_creg = 0;
      blocks = Hashtbl.create 256;
      huge = Hashtbl.create 16;
      stats = fresh_stats ();
    }
  in
  {
    name = "subheap";
    malloc = (fun ~size ~cty -> malloc st ~size ~cty);
    free = (fun p -> free st p);
    owns =
      (fun p ->
        let a = Tag.addr p in
        Int64.compare a st.base >= 0 && Int64.compare a st.limit < 0);
    stats = (fun () -> st.stats);
    extra_stats =
      (fun () ->
        [
          ("pools", Hashtbl.length st.pools);
          ("blocks", Hashtbl.length st.blocks);
          ("cregs", st.next_creg);
          ("huge", Hashtbl.length st.huge);
        ]
        @ if st.temporal then [ ("quarantined_bytes", st.quarantined) ] else []);
  }
