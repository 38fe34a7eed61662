(* The object-metadata lookups of [Ifp_metadata.Meta] as they stood
   before the list-free promote core: each returns its result together
   with the list of metadata fetches, in order. Copied from the lookup
   functions and their helpers; the only edits are that the production
   context's fields are read through its accessors ([mem t] for
   [t.mem], and so on). *)

open Ifp_util
module P = Ifp_metadata.Meta
module Memory = Ifp_machine.Memory
module Tag = Ifp_isa.Tag

type t = P.t

type fetch = { addr : int64; bytes : int }

type obj_meta = {
  obj_base : int64;
  obj_size : int;
  layout_ptr : int64;
  gen : int;
  freed : bool;
}

let mem t = P.memory t
let key t = P.mac_key t
let temporal t = P.temporal t

let layout_magic = 0x4C544231L (* "LTB1" *)

let element_bytes = 16
let header_bytes = 16

let read_element t table_ptr i =
  let addr = Int64.add table_ptr (Int64.of_int (header_bytes + (i * element_bytes))) in
  {
    Ifp_types.Layout.parent = Memory.read_u16 (mem t) addr;
    base = Int64.to_int (Memory.read_u32 (mem t) (Int64.add addr 4L));
    bound = Int64.to_int (Memory.read_u32 (mem t) (Int64.add addr 8L));
    elem_size = Int64.to_int (Memory.read_u32 (mem t) (Int64.add addr 12L));
  }

let layout_count t table_ptr =
  if Int64.equal table_ptr 0L then 0
  else
    let magic = Memory.read_u32 (mem t) table_ptr in
    if not (Int64.equal magic layout_magic) then 0
    else Int64.to_int (Memory.read_u32 (mem t) (Int64.add table_ptr 4L))

module Local_offset = struct
  let fits ~size = size > 0 && size <= Tag.local_offset_max_object

  let mac_fields ~meta_addr ~size ~layout_word =
    [ meta_addr; Int64.of_int size; layout_word ]

  let lw_layout w = Int64.logand w 0xFF_FFFF_FFFF_FFFFL
  let lw_gen w = Int64.to_int (Int64.shift_right_logical w 56) land 0xF
  let lw_freed w = Int64.logand (Int64.shift_right_logical w 60) 1L = 1L

  let read_meta t meta_addr =
    let size = Memory.read_u16 (mem t) meta_addr in
    let mac_lo = Memory.read_u16 (mem t) (Int64.add meta_addr 2L) in
    let mac_hi = Memory.read_u32 (mem t) (Int64.add meta_addr 4L) in
    let mac = Int64.logor (Int64.of_int mac_lo) (Int64.shift_left mac_hi 16) in
    let layout_word = Memory.read_u64 (mem t) (Int64.add meta_addr 8L) in
    (size, mac, layout_word)

  let lookup t ptr =
    let meta_addr = Tag.metadata_addr_local_offset ptr in
    let fetches =
      [ { addr = meta_addr; bytes = 8 }; { addr = Int64.add meta_addr 8L; bytes = 8 } ]
    in
    match read_meta t meta_addr with
    | exception Memory.Fault (_, a) ->
      (Error (Printf.sprintf "metadata page fault at 0x%Lx" a), fetches)
    | size, mac, layout_word ->
      if not (fits ~size) then (Error "bad object size", fetches)
      else if
        not (Mac.verify ~key:(key t) (mac_fields ~meta_addr ~size ~layout_word) ~mac)
      then (Error "MAC mismatch", fetches)
      else
        let obj_base =
          Int64.sub meta_addr (Int64.of_int (Bits.align_up size Tag.granule))
        in
        let layout_ptr = if temporal t then lw_layout layout_word else layout_word in
        let gen = if temporal t then lw_gen layout_word else 0 in
        let freed = temporal t && lw_freed layout_word in
        (Ok { obj_base; obj_size = size; layout_ptr; gen; freed }, fetches)
end

module Subheap = struct
  let mac_fields ~block_base ~slot_start ~slot_end ~slot_size ~obj_size ~layout_ptr =
    [
      block_base;
      Int64.of_int slot_start;
      Int64.of_int slot_end;
      Int64.of_int slot_size;
      Int64.of_int obj_size;
      layout_ptr;
    ]

  let meta_addr_of ~(creg : P.Subheap.creg) ~block_base =
    Int64.add block_base creg.metadata_offset

  let bitmap_byte_addr meta_addr slot =
    Int64.add meta_addr (Int64.of_int (32 + (slot lsr 3)))

  let slot_freed t ~meta_addr ~slot =
    temporal t
    && slot >= 0
    && slot < 256
    && Memory.read_u8 (mem t) (bitmap_byte_addr meta_addr slot)
       land (1 lsl (slot land 7))
       <> 0

  let lookup t ptr =
    let creg_idx = Tag.creg_index ptr in
    match P.Subheap.get_creg t creg_idx with
    | None -> (Error "control register not configured", [], 0)
    | Some creg ->
      let addr = Tag.addr ptr in
      let block_base = Bits.align_down64 addr (1 lsl creg.block_size_log2) in
      let meta_addr = meta_addr_of ~creg ~block_base in
      let fetches =
        [
          { addr = meta_addr; bytes = 8 };
          { addr = Int64.add meta_addr 8L; bytes = 8 };
          { addr = Int64.add meta_addr 16L; bytes = 8 };
          { addr = Int64.add meta_addr 24L; bytes = 8 };
        ]
      in
      let read () =
        let slot_start = Int64.to_int (Memory.read_u32 (mem t) meta_addr) in
        let slot_end =
          Int64.to_int (Memory.read_u32 (mem t) (Int64.add meta_addr 4L))
        in
        let slot_size =
          Int64.to_int (Memory.read_u32 (mem t) (Int64.add meta_addr 8L))
        in
        let obj_size =
          Int64.to_int (Memory.read_u32 (mem t) (Int64.add meta_addr 12L))
        in
        let layout_ptr = Memory.read_u64 (mem t) (Int64.add meta_addr 16L) in
        let mac_lo = Memory.read_u16 (mem t) (Int64.add meta_addr 24L) in
        let mac_hi = Memory.read_u32 (mem t) (Int64.add meta_addr 26L) in
        let mac =
          Int64.logor (Int64.of_int mac_lo) (Int64.shift_left mac_hi 16)
        in
        (slot_start, slot_end, slot_size, obj_size, layout_ptr, mac)
      in
      (match read () with
      | exception Memory.Fault (_, a) ->
        (Error (Printf.sprintf "metadata page fault at 0x%Lx" a), fetches, 0)
      | slot_start, slot_end, slot_size, obj_size, layout_ptr, mac ->
        if slot_size <= 0 || obj_size <= 0 || obj_size > slot_size then
          (Error "bad slot geometry", fetches, 0)
        else if
          not
            (Mac.verify ~key:(key t)
               (mac_fields ~block_base ~slot_start ~slot_end ~slot_size
                  ~obj_size ~layout_ptr)
               ~mac)
        then (Error "MAC mismatch", fetches, 0)
        else
          let off = Int64.to_int (Int64.sub addr block_base) in
          if off < slot_start || off >= slot_end then
            (Error "address outside slot array", fetches, 0)
          else
            let slot = (off - slot_start) / slot_size in
            let obj_base =
              Int64.add block_base (Int64.of_int (slot_start + (slot * slot_size)))
            in
            let gen =
              if temporal t then
                Memory.read_u16 (mem t) (Int64.add meta_addr 30L) land 0xF
              else 0
            in
            let freed = slot_freed t ~meta_addr ~slot in
            let fetches =
              if temporal t then
                fetches @ [ { addr = bitmap_byte_addr meta_addr slot; bytes = 1 } ]
              else fetches
            in
            (Ok { obj_base; obj_size; layout_ptr; gen; freed }, fetches, 0))
end

module Global_table = struct
  let row_addr t i = Int64.add (fst (P.global_table t)) (Int64.of_int (i * 16))

  let gt_freed_bit = Int64.shift_left 1L 44

  let gt_gen w1 = Int64.to_int (Int64.shift_right_logical w1 44) land 0xF

  let lookup t ptr =
    let i = Tag.table_index ptr in
    if i <= 0 || i >= snd (P.global_table t) then (Error "table index out of range", [])
    else
      let addr = row_addr t i in
      let fetches =
        [ { addr; bytes = 8 }; { addr = Int64.add addr 8L; bytes = 8 } ]
      in
      let w0 = Memory.read_u64 (mem t) addr in
      let w1 = Memory.read_u64 (mem t) (Int64.add addr 8L) in
      let base = if temporal t then Int64.logand w0 Tag.addr_mask else Bits.u48 w0 in
      let size_lo = Int64.to_int (Int64.shift_right_logical w0 48) in
      let size_hi = Int64.to_int (Int64.shift_right_logical w1 48) in
      let size = size_lo lor (size_hi lsl 16) in
      let layout_ptr =
        if temporal t then Int64.logand w1 Tag.addr_mask else Bits.u48 w1
      in
      let gen = if temporal t then gt_gen w1 else 0 in
      let freed = temporal t && Int64.logand w0 gt_freed_bit <> 0L in
      if Int64.equal base 0L || size = 0 then (Error "row not in use", fetches)
      else (Ok { obj_base = base; obj_size = size; layout_ptr; gen; freed }, fetches)
end
