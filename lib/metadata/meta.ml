open Ifp_util
module Memory = Ifp_machine.Memory
module Tag = Ifp_isa.Tag

type fetch = { addr : int64; bytes : int }

type obj_meta = {
  obj_base : int64;
  obj_size : int;
  layout_ptr : int64;
  gen : int;
  freed : bool;
}

type free_status = [ `Freed_ok | `Already_freed | `Invalid ]

type creg_v = { block_size_log2 : int; metadata_offset : int64 }

type scheme = Scheme_local_offset | Scheme_subheap | Scheme_global_table

type live_entry = {
  scheme : scheme;
  meta_addr : int64;
  meta_bytes : int;
  mac_off : int option;
}

(* What the last lookup found, written in place so that a lookup
   allocates nothing: the promote core reads it straight after the call. *)
type found = {
  mutable f_base : int;
  mutable f_size : int;
  mutable f_layout : int64;
  mutable f_gen : int;
  mutable f_freed : bool;
  mutable f_reason : string;
}

type t = {
  mem : Memory.t;
  key : Mac.key;
  temporal : bool;
      (* free-epoch generations live in each record and deregister marks
         instead of reclaiming; off = bit-identical spatial-only layout *)
  layout_base : int64;
  layout_size : int;
  mutable layout_next : int64;
  layouts : (Ifp_types.Ctype.t, int64) Hashtbl.t;
  gt_base : int64;
  gt_entries : int;
  mutable gt_free : int list;
  mutable gt_used : int;
  cregs : creg_v option array;
  live : (int64, live_entry) Hashtbl.t option;
      (* every metadata record currently in memory, keyed by address —
         the fault injector's target registry; [None] when no injector
         reads it, so registration costs no table update *)
  found : found;
}

let layout_magic = 0x4C544231L (* "LTB1" *)

let create ?(temporal = false) ?(registry = true) ~memory ~mac_key
    ~layout_region:(lbase, lsize) ~global_table:(gbase, entries) () =
  if entries < 1 || entries > Tag.global_table_entries then
    invalid_arg "Meta.create: global table entries";
  {
    mem = memory;
    key = mac_key;
    temporal;
    layout_base = lbase;
    layout_size = lsize;
    layout_next = lbase;
    layouts = Hashtbl.create 64;
    gt_base = gbase;
    gt_entries = entries;
    (* row 0 is reserved so that a zero index never looks valid *)
    gt_free = List.init (entries - 1) (fun i -> i + 1);
    gt_used = 0;
    cregs = Array.make 16 None;
    live = (if registry then Some (Hashtbl.create 64) else None);
    found =
      { f_base = 0; f_size = 0; f_layout = 0L; f_gen = 0; f_freed = false;
        f_reason = "" };
  }

let memory t = t.mem
let mac_key t = t.key
let temporal t = t.temporal
let found t = t.found
let global_table t = (t.gt_base, t.gt_entries)

(* inlined, so a context without the registry builds no entry *)
let[@inline] live_add t scheme meta_addr meta_bytes mac_off =
  match t.live with
  | None -> ()
  | Some h -> Hashtbl.replace h meta_addr { scheme; meta_addr; meta_bytes; mac_off }

let[@inline] live_remove t meta_addr =
  match t.live with None -> () | Some h -> Hashtbl.remove h meta_addr

let live_entries t =
  match t.live with
  | None -> []
  | Some h ->
    Hashtbl.fold (fun _ e acc -> e :: acc) h []
    |> List.sort (fun a b -> Int64.compare a.meta_addr b.meta_addr)

let wipe_entry t e =
  for i = 0 to e.meta_bytes - 1 do
    Memory.write_u8 t.mem (Int64.add e.meta_addr (Int64.of_int i)) 0
  done;
  live_remove t e.meta_addr

(* ------------------------------------------------------------------ *)
(* Layout tables                                                       *)

let element_bytes = 16
let header_bytes = 16

let write_element t addr (e : Ifp_types.Layout.element) =
  Memory.write_u16 t.mem addr e.parent;
  Memory.write_u16 t.mem (Int64.add addr 2L) 0;
  Memory.write_u32 t.mem (Int64.add addr 4L) (Int64.of_int e.base);
  Memory.write_u32 t.mem (Int64.add addr 8L) (Int64.of_int e.bound);
  Memory.write_u32 t.mem (Int64.add addr 12L) (Int64.of_int e.elem_size)

let read_element t table_ptr i =
  let addr = Int64.add table_ptr (Int64.of_int (header_bytes + (i * element_bytes))) in
  {
    Ifp_types.Layout.parent = Memory.read_u16 t.mem addr;
    base = Int64.to_int (Memory.read_u32 t.mem (Int64.add addr 4L));
    bound = Int64.to_int (Memory.read_u32 t.mem (Int64.add addr 8L));
    elem_size = Int64.to_int (Memory.read_u32 t.mem (Int64.add addr 12L));
  }

let layout_count t table_ptr =
  if Int64.equal table_ptr 0L then 0
  else
    let magic = Memory.read_u32 t.mem table_ptr in
    if not (Int64.equal magic layout_magic) then 0
    else Int64.to_int (Memory.read_u32 t.mem (Int64.add table_ptr 4L))

(* Every typed wrapped or subheap malloc lands here, so the type is
   looked up before its layout is built, and a type with no table is
   remembered as [0L] too. *)
let intern_layout t env ty =
  match Hashtbl.find t.layouts ty with
  | addr -> addr
  | exception Not_found ->
    let layout = Ifp_types.Layout.build env ty in
    let n = Ifp_types.Layout.length layout in
    if n <= 1 then begin
      Hashtbl.replace t.layouts ty 0L;
      0L
    end
    else begin
      let bytes = header_bytes + (n * element_bytes) in
      let addr = t.layout_next in
      if
        Int64.compare
          (Int64.add addr (Int64.of_int bytes))
          (Int64.add t.layout_base (Int64.of_int t.layout_size))
        > 0
      then failwith "Meta.intern_layout: layout region exhausted";
      t.layout_next <- Int64.add addr (Int64.of_int bytes);
      Memory.write_u32 t.mem addr layout_magic;
      Memory.write_u32 t.mem (Int64.add addr 4L) (Int64.of_int n);
      Memory.write_u64 t.mem (Int64.add addr 8L) 0L;
      Array.iteri
        (fun i e ->
          write_element t
            (Int64.add addr (Int64.of_int (header_bytes + (i * element_bytes))))
            e)
        (Ifp_types.Layout.elements layout);
      Hashtbl.replace t.layouts ty addr;
      addr
    end

let layout_bytes_used t = Int64.to_int (Int64.sub t.layout_next t.layout_base)

(* ------------------------------------------------------------------ *)
(* Lookup plumbing                                                     *)

let fault_reason a = Printf.sprintf "metadata page fault at 0x%Lx" a

let fail f reason =
  f.f_reason <- reason;
  false

(* the list-building face of a [probe]: its fetches, in order, and what
   it found *)
let collect probe t =
  let fetches = ref [] in
  let ok = probe ~fetch:(fun addr bytes -> fetches := { addr; bytes } :: !fetches) in
  let f = t.found in
  let r =
    if ok then
      Ok
        {
          obj_base = Int64.of_int f.f_base;
          obj_size = f.f_size;
          layout_ptr = f.f_layout;
          gen = f.f_gen;
          freed = f.f_freed;
        }
    else Error f.f_reason
  in
  (r, List.rev !fetches)

(* ------------------------------------------------------------------ *)
(* Local-offset scheme                                                 *)

module Local_offset = struct
  let metadata_size = 16

  let footprint ~size = Bits.align_up size Tag.granule + metadata_size

  let fits ~size = size > 0 && size <= Tag.local_offset_max_object

  (* The MAC covers the stored layout word verbatim; in temporal mode
     that word also packs the generation and freed flag (bits 59..56 and
     60), so tampering with the temporal state is caught exactly like
     tampering with the layout pointer. *)
  let mac_fields ~meta_addr ~size ~layout_word =
    [ meta_addr; Int64.of_int size; layout_word ]

  let lw_layout w = Int64.logand w 0xFF_FFFF_FFFF_FFFFL
  let lw_gen w = Int64.to_int (Int64.shift_right_logical w 56) land 0xF
  let lw_freed w = Int64.logand (Int64.shift_right_logical w 60) 1L = 1L

  let lw_pack ~layout_ptr ~gen ~freed =
    Int64.logor (lw_layout layout_ptr)
      (Int64.logor
         (Int64.shift_left (Int64.of_int (gen land 0xF)) 56)
         (if freed then Int64.shift_left 1L 60 else 0L))

  let write_record t ~meta_addr ~size ~layout_word =
    let mac = Mac.compute ~key:t.key (mac_fields ~meta_addr ~size ~layout_word) in
    Memory.write_u16 t.mem meta_addr size;
    Memory.write_u16 t.mem (Int64.add meta_addr 2L)
      (Int64.to_int (Int64.logand mac 0xFFFFL));
    Memory.write_u32 t.mem (Int64.add meta_addr 4L)
      (Int64.shift_right_logical mac 16);
    Memory.write_u64 t.mem (Int64.add meta_addr 8L) layout_word

  let register t ~base ~size ~layout_ptr =
    if not (fits ~size) then invalid_arg "Local_offset.register: size";
    if not (Int64.equal (Bits.align_down64 base Tag.granule) base) then
      invalid_arg "Local_offset.register: base not granule-aligned";
    let meta_addr = Int64.add base (Int64.of_int (Bits.align_up size Tag.granule)) in
    let gen =
      (* generation continuity: a reused slot (stack frames, recycled
         heap) inherits whatever epoch its previous record reached, so
         stale pointers into the previous tenant mismatch *)
      if t.temporal then
        Int64.to_int
          (Int64.shift_right_logical
             (Memory.read_u64 t.mem (Int64.add meta_addr 8L))
             56)
        land 0xF
      else 0
    in
    let layout_word =
      if t.temporal then lw_pack ~layout_ptr ~gen ~freed:false else layout_ptr
    in
    write_record t ~meta_addr ~size ~layout_word;
    live_add t Scheme_local_offset meta_addr metadata_size (Some 2);
    let granule_off = Bits.align_up size Tag.granule / Tag.granule in
    let p = Tag.make_local_offset ~addr:base ~granule_off ~subobj:0 in
    if t.temporal then Tag.with_gen p gen else p

  let read_meta t meta_addr =
    let size = Memory.read_u16 t.mem meta_addr in
    let mac_lo = Memory.read_u16 t.mem (Int64.add meta_addr 2L) in
    let mac_hi = Memory.read_u32 t.mem (Int64.add meta_addr 4L) in
    let mac = Int64.logor (Int64.of_int mac_lo) (Int64.shift_left mac_hi 16) in
    let layout_word = Memory.read_u64 t.mem (Int64.add meta_addr 8L) in
    (size, mac, layout_word)

  let deregister t ptr =
    let meta_addr = Tag.metadata_addr_local_offset ptr in
    for i = 0 to metadata_size - 1 do
      Memory.write_u8 t.mem (Int64.add meta_addr (Int64.of_int i)) 0
    done;
    live_remove t meta_addr

  (* temporal free: keep the record, bump its generation, set the freed
     flag, re-MAC — the record itself becomes the free-epoch witness *)
  let mark_freed_at t meta_addr : free_status =
    match read_meta t meta_addr with
    | exception Memory.Fault _ -> `Invalid
    | size, mac, word ->
      if
        (not (fits ~size))
        || not
             (Mac.verify ~key:t.key
                (mac_fields ~meta_addr ~size ~layout_word:word)
                ~mac)
      then `Invalid
      else if lw_freed word then `Already_freed
      else begin
        let gen = (lw_gen word + 1) mod Tag.gen_states in
        let layout_word =
          lw_pack ~layout_ptr:(lw_layout word) ~gen ~freed:true
        in
        write_record t ~meta_addr ~size ~layout_word;
        `Freed_ok
      end

  let deregister_temporal t ptr =
    mark_freed_at t (Tag.metadata_addr_local_offset ptr)

  let probe t ptr ~fetch =
    let meta_addr = Tag.metadata_addr_local_offset ptr in
    fetch meta_addr 8;
    fetch (Int64.add meta_addr 8L) 8;
    let f = t.found and m = t.mem in
    match
      f.f_size <- Memory.read_u16 m meta_addr;
      let mac_lo = Memory.read_u16 m (Int64.add meta_addr 2L) in
      let mac_hi = Memory.read_u32 m (Int64.add meta_addr 4L) in
      f.f_layout <- Memory.read_u64 m (Int64.add meta_addr 8L);
      mac_lo lor (Int64.to_int mac_hi lsl 16)
    with
    | exception Memory.Fault (_, a) -> fail f (fault_reason a)
    | mac ->
      let size = f.f_size and layout_word = f.f_layout in
      if not (fits ~size) then fail f "bad object size"
      else if
        not
          (Mac.verify3 ~key:t.key meta_addr (Int64.of_int size) layout_word
             ~mac)
      then fail f "MAC mismatch"
      else begin
        f.f_base <- Int64.to_int meta_addr - Bits.align_up size Tag.granule;
        if t.temporal then begin
          f.f_layout <- lw_layout layout_word;
          f.f_gen <- lw_gen layout_word;
          f.f_freed <- lw_freed layout_word
        end
        else begin
          f.f_gen <- 0;
          f.f_freed <- false
        end;
        true
      end

  let lookup t ptr = collect (fun ~fetch -> probe t ptr ~fetch) t
end

(* ------------------------------------------------------------------ *)
(* Subheap scheme                                                      *)

module Subheap = struct
  type creg = creg_v = { block_size_log2 : int; metadata_offset : int64 }

  let n_cregs = 16

  let set_creg t i v =
    if i < 0 || i >= n_cregs then invalid_arg "Subheap.set_creg";
    t.cregs.(i) <- v

  let get_creg t i =
    if i < 0 || i >= n_cregs then invalid_arg "Subheap.get_creg";
    t.cregs.(i)

  let block_metadata_size = 32

  (* temporal mode doubles the record: the 32-byte header keeps its
     packing (the flags halfword at +30 becomes the block generation)
     and a 256-bit freed-slot bitmap follows at +32. Neither is covered
     by the block MAC — the same trust level as the MAC-less
     global-table rows. *)
  let temporal_metadata_size = 64

  let record_size t = if t.temporal then temporal_metadata_size else block_metadata_size

  let mac_fields ~block_base ~slot_start ~slot_end ~slot_size ~obj_size ~layout_ptr =
    [
      block_base;
      Int64.of_int slot_start;
      Int64.of_int slot_end;
      Int64.of_int slot_size;
      Int64.of_int obj_size;
      layout_ptr;
    ]

  let meta_addr_of ~creg ~block_base = Int64.add block_base creg.metadata_offset

  let write_block_metadata t ~creg ~block_base ~slot_start ~slot_end ~slot_size
      ~obj_size ~layout_ptr =
    let creg =
      match t.cregs.(creg) with
      | Some c -> c
      | None -> invalid_arg "Subheap.write_block_metadata: creg not configured"
    in
    let meta_addr = meta_addr_of ~creg ~block_base in
    let mac =
      Mac.compute ~key:t.key
        (mac_fields ~block_base ~slot_start ~slot_end ~slot_size ~obj_size
           ~layout_ptr)
    in
    Memory.write_u32 t.mem meta_addr (Int64.of_int slot_start);
    Memory.write_u32 t.mem (Int64.add meta_addr 4L) (Int64.of_int slot_end);
    Memory.write_u32 t.mem (Int64.add meta_addr 8L) (Int64.of_int slot_size);
    Memory.write_u32 t.mem (Int64.add meta_addr 12L) (Int64.of_int obj_size);
    Memory.write_u64 t.mem (Int64.add meta_addr 16L) layout_ptr;
    Memory.write_u16 t.mem (Int64.add meta_addr 24L)
      (Int64.to_int (Int64.logand mac 0xFFFFL));
    Memory.write_u32 t.mem (Int64.add meta_addr 26L)
      (Int64.shift_right_logical mac 16);
    if t.temporal then begin
      (* block generation continues from whatever the previous tenant of
         this block address reached (bumped by clear_block_metadata) *)
      let gen = Memory.read_u16 t.mem (Int64.add meta_addr 30L) land 0xF in
      Memory.write_u16 t.mem (Int64.add meta_addr 30L) gen;
      for i = 32 to temporal_metadata_size - 1 do
        Memory.write_u8 t.mem (Int64.add meta_addr (Int64.of_int i)) 0
      done
    end
    else Memory.write_u16 t.mem (Int64.add meta_addr 30L) 0;
    live_add t Scheme_subheap meta_addr (record_size t) (Some 24)

  let block_gen t ~creg ~block_base =
    if not t.temporal then 0
    else
      match t.cregs.(creg) with
      | None -> 0
      | Some c ->
        let meta_addr = meta_addr_of ~creg:c ~block_base in
        Memory.read_u16 t.mem (Int64.add meta_addr 30L) land 0xF

  let clear_block_metadata t ~creg ~block_base =
    match t.cregs.(creg) with
    | None -> ()
    | Some c ->
      let meta_addr = meta_addr_of ~creg:c ~block_base in
      let gen =
        if t.temporal then
          (Memory.read_u16 t.mem (Int64.add meta_addr 30L) + 1) land 0xF
        else 0
      in
      for i = 0 to record_size t - 1 do
        Memory.write_u8 t.mem (Int64.add meta_addr (Int64.of_int i)) 0
      done;
      if t.temporal then
        Memory.write_u16 t.mem (Int64.add meta_addr 30L) gen;
      live_remove t meta_addr

  let tag_pointer ~creg ~addr = Tag.make_subheap ~addr ~creg ~subobj:0

  (* per-slot temporal state: one freed bit per slot in the bitmap that
     trails the header *)
  let bitmap_byte_addr meta_addr slot =
    Int64.add meta_addr (Int64.of_int (32 + (slot lsr 3)))

  let slot_freed t ~meta_addr ~slot =
    t.temporal
    && slot >= 0
    && slot < 256
    && Memory.read_u8 t.mem (bitmap_byte_addr meta_addr slot)
       land (1 lsl (slot land 7))
       <> 0

  let slot_mark_freed t ~creg ~block_base ~slot : free_status =
    match t.cregs.(creg) with
    | None -> `Invalid
    | Some c ->
      if slot < 0 || slot >= 256 then `Invalid
      else begin
        let meta_addr = meta_addr_of ~creg:c ~block_base in
        let a = bitmap_byte_addr meta_addr slot in
        let byte = Memory.read_u8 t.mem a in
        let bit = 1 lsl (slot land 7) in
        if byte land bit <> 0 then `Already_freed
        else begin
          Memory.write_u8 t.mem a (byte lor bit);
          `Freed_ok
        end
      end

  let mark_all_slots_freed t meta_addr =
    for i = 32 to temporal_metadata_size - 1 do
      Memory.write_u8 t.mem (Int64.add meta_addr (Int64.of_int i)) 0xFF
    done

  let probe t ptr ~fetch =
    let f = t.found in
    match t.cregs.(Tag.creg_index ptr) with
    | None -> fail f "control register not configured"
    | Some creg -> (
      let addr = Tag.addr ptr in
      let block_base = Bits.align_down64 addr (1 lsl creg.block_size_log2) in
      let meta_addr = meta_addr_of ~creg ~block_base in
      fetch meta_addr 8;
      fetch (Int64.add meta_addr 8L) 8;
      fetch (Int64.add meta_addr 16L) 8;
      fetch (Int64.add meta_addr 24L) 8;
      let m = t.mem in
      let slot_start = ref 0 and slot_end = ref 0 and slot_size = ref 0 in
      (* only the header reads fault into an invalid-metadata outcome;
         the temporal generation and bitmap reads below do not *)
      match
        slot_start := Int64.to_int (Memory.read_u32 m meta_addr);
        slot_end := Int64.to_int (Memory.read_u32 m (Int64.add meta_addr 4L));
        slot_size := Int64.to_int (Memory.read_u32 m (Int64.add meta_addr 8L));
        f.f_size <- Int64.to_int (Memory.read_u32 m (Int64.add meta_addr 12L));
        f.f_layout <- Memory.read_u64 m (Int64.add meta_addr 16L);
        let mac_lo = Memory.read_u16 m (Int64.add meta_addr 24L) in
        let mac_hi = Memory.read_u32 m (Int64.add meta_addr 26L) in
        mac_lo lor (Int64.to_int mac_hi lsl 16)
      with
      | exception Memory.Fault (_, a) -> fail f (fault_reason a)
      | mac ->
        let slot_start = !slot_start and slot_end = !slot_end in
        let slot_size = !slot_size and obj_size = f.f_size in
        if slot_size <= 0 || obj_size <= 0 || obj_size > slot_size then
          fail f "bad slot geometry"
        else if
          not
            (Mac.verify6 ~key:t.key block_base (Int64.of_int slot_start)
               (Int64.of_int slot_end) (Int64.of_int slot_size)
               (Int64.of_int obj_size) f.f_layout ~mac)
        then fail f "MAC mismatch"
        else
          let off = Int64.to_int (Int64.sub addr block_base) in
          if off < slot_start || off >= slot_end then
            fail f "address outside slot array"
          else begin
            (* the slot-size constraint (§3.3.2) makes this division a
               shift, so it is not charged as a multi-cycle divide *)
            let slot = (off - slot_start) / slot_size in
            f.f_base <-
              Int64.to_int block_base + slot_start + (slot * slot_size);
            if t.temporal then begin
              f.f_gen <- Memory.read_u16 m (Int64.add meta_addr 30L) land 0xF;
              f.f_freed <- slot_freed t ~meta_addr ~slot;
              fetch (bitmap_byte_addr meta_addr slot) 1
            end
            else begin
              f.f_gen <- 0;
              f.f_freed <- false
            end;
            true
          end)

  let lookup t ptr =
    let r, fetches = collect (fun ~fetch -> probe t ptr ~fetch) t in
    (r, fetches, 0)
end

(* ------------------------------------------------------------------ *)
(* Global-table scheme                                                 *)

module Global_table = struct
  let row_addr t i = Int64.add t.gt_base (Int64.of_int (i * 16))

  (* With the 44-bit virtual address, bits 47..44 of each row word are
     spare: w0 bit 44 is the freed flag, w1 bits 47..44 the generation.
     Spatial-only rows leave them zero, so the packing is unchanged. *)
  let gt_freed_bit = Int64.shift_left 1L 44

  let gt_gen w1 = Int64.to_int (Int64.shift_right_logical w1 44) land 0xF

  let gt_with_gen w1 g =
    Bits.insert_int w1 ~lo:44 ~width:4 (g land 0xF)

  let register t ~base ~size ~layout_ptr =
    match t.gt_free with
    | [] -> None
    | i :: rest ->
      t.gt_free <- rest;
      t.gt_used <- t.gt_used + 1;
      let addr = row_addr t i in
      let w0 =
        Int64.logor (Bits.u48 base)
          (Int64.shift_left (Int64.of_int (size land 0xFFFF)) 48)
      in
      let w1 =
        Int64.logor (Bits.u48 layout_ptr)
          (Int64.shift_left (Int64.of_int ((size lsr 16) land 0xFFFF)) 48)
      in
      Memory.write_u64 t.mem addr w0;
      Memory.write_u64 t.mem (Int64.add addr 8L) w1;
      live_add t Scheme_global_table addr 16 None;
      Some (Tag.make_global_table ~addr:base ~index:i)

  let deregister t ptr =
    let i = Tag.table_index ptr in
    if i > 0 && i < t.gt_entries then begin
      let addr = row_addr t i in
      Memory.write_u64 t.mem addr 0L;
      Memory.write_u64 t.mem (Int64.add addr 8L) 0L;
      live_remove t addr;
      t.gt_free <- i :: t.gt_free;
      t.gt_used <- t.gt_used - 1
    end

  (* temporal free: the row is quarantined — it keeps its base/size (so
     stale promotes still resolve and trap with the temporal reason),
     gains the freed bit and a bumped generation, and is never returned
     to the free list *)
  let mark_freed_at_row t addr : free_status =
    let w0 = Memory.read_u64 t.mem addr in
    let w1 = Memory.read_u64 t.mem (Int64.add addr 8L) in
    let base = Int64.logand w0 Tag.addr_mask in
    let size_lo = Int64.to_int (Int64.shift_right_logical w0 48) in
    let size_hi = Int64.to_int (Int64.shift_right_logical w1 48) in
    let size = size_lo lor (size_hi lsl 16) in
    if Int64.equal base 0L || size = 0 then `Invalid
    else if Int64.logand w0 gt_freed_bit <> 0L then `Already_freed
    else begin
      Memory.write_u64 t.mem addr (Int64.logor w0 gt_freed_bit);
      Memory.write_u64 t.mem (Int64.add addr 8L)
        (gt_with_gen w1 ((gt_gen w1 + 1) mod Tag.gen_states));
      `Freed_ok
    end

  let deregister_temporal t ptr : free_status =
    let i = Tag.table_index ptr in
    if i <= 0 || i >= t.gt_entries then `Invalid
    else mark_freed_at_row t (row_addr t i)

  let rows_in_use t = t.gt_used

  let probe t ptr ~fetch =
    let f = t.found in
    let i = Tag.table_index ptr in
    if i <= 0 || i >= t.gt_entries then fail f "table index out of range"
    else begin
      let addr = row_addr t i in
      fetch addr 8;
      fetch (Int64.add addr 8L) 8;
      let w0 = Memory.read_u64 t.mem addr in
      let w1 = Memory.read_u64 t.mem (Int64.add addr 8L) in
      let mask = if t.temporal then Tag.addr_mask else 0xFFFF_FFFF_FFFFL in
      let base = Int64.to_int (Int64.logand w0 mask) in
      let size_lo = Int64.to_int (Int64.shift_right_logical w0 48) in
      let size_hi = Int64.to_int (Int64.shift_right_logical w1 48) in
      let size = size_lo lor (size_hi lsl 16) in
      if base = 0 || size = 0 then fail f "row not in use"
      else begin
        f.f_base <- base;
        f.f_size <- size;
        f.f_layout <- Int64.logand w1 mask;
        if t.temporal then begin
          f.f_gen <- gt_gen w1;
          f.f_freed <- Int64.logand w0 gt_freed_bit <> 0L
        end
        else begin
          f.f_gen <- 0;
          f.f_freed <- false
        end;
        true
      end
    end

  let lookup t ptr = collect (fun ~fetch -> probe t ptr ~fetch) t
end

(* ------------------------------------------------------------------ *)
(* Fault-injector entry point: a LEGITIMATE free of a live record (the
   uaf_use / double_free fault classes), as opposed to [wipe_entry]'s
   attacker memset. In temporal mode this is the real free-epoch
   transition; outside it, it models what the spatial-only design does
   on free — the record simply vanishes. *)

let mark_freed t (e : live_entry) : free_status =
  if not t.temporal then begin
    wipe_entry t e;
    `Freed_ok
  end
  else
    match e.scheme with
    | Scheme_local_offset -> Local_offset.mark_freed_at t e.meta_addr
    | Scheme_subheap ->
      (* the injector frees the whole block's slots: every object in the
         block enters the freed epoch *)
      Subheap.mark_all_slots_freed t e.meta_addr;
      `Freed_ok
    | Scheme_global_table -> Global_table.mark_freed_at_row t e.meta_addr
