module Tag = Ifp_isa.Tag
module Bounds = Ifp_isa.Bounds
module Memory = Ifp_machine.Memory

type narrow_status = No_subobject | Narrowed | Narrow_failed of string

type outcome =
  | Bypass_poisoned
  | Bypass_null
  | Bypass_legacy
  | Metadata_invalid of string
  | Temporal_stale of { freed : bool; gen_ptr : int; gen_meta : int }
      (** temporal mode: the record resolved but its allocation is in a
          later free epoch — freed outright, or the pointer's generation
          nibble no longer matches the record's *)
  | Retrieved of narrow_status

type result = {
  ptr : int64;
  bounds : Bounds.t;
  outcome : outcome;
  fetches : Meta.fetch list;
  divisions : int;
  walk_elems : int;
  mac_checks : int;
}

type out = {
  mutable o_ptr : int64;
  mutable o_bounds : Bounds.t;
  mutable o_outcome : outcome;
  mutable o_divisions : int;
  mutable o_walk_elems : int;
  mutable o_mac_checks : int;
  mutable w_lo : int;
  mutable w_hi : int;
  mutable w_stride : int;
}

let create_out () =
  {
    o_ptr = 0L;
    o_bounds = Bounds.no_bounds;
    o_outcome = Bypass_null;
    o_divisions = 0;
    o_walk_elems = 0;
    o_mac_checks = 0;
    w_lo = 0;
    w_hi = 0;
    w_stride = 0;
  }

let bypass o ptr outcome =
  o.o_ptr <- ptr;
  o.o_bounds <- Bounds.no_bounds;
  o.o_outcome <- outcome;
  o.o_divisions <- 0;
  o.o_walk_elems <- 0;
  o.o_mac_checks <- 0

let mask48 = Bounds.mask48

let poison_from_bounds ptr lo hi =
  let a = Int64.to_int (Tag.addr ptr) in
  if lo <= a && a < hi then Tag.with_poison ptr Tag.Valid
  else Tag.with_poison ptr Tag.Oob

let retrieved o ptr ~lo ~hi outcome =
  let lo = lo land mask48 and hi = hi land mask48 in
  o.o_ptr <- poison_from_bounds ptr lo hi;
  o.o_bounds <- Bounds.Bounds { lo; hi };
  o.o_outcome <- outcome

let element_addr table_ptr i =
  Int64.add table_ptr (Int64.of_int (Meta.header_bytes + (i * Meta.element_bytes)))

(* The parent chain of element [i], root first, with no list: element
   [i] is read (all four fields, last field first, in the order the
   compiled [Meta.read_element] reads them, so a fault names the same
   address), then its ancestors down to element 0, so the reads run target to root
   as the hardware walker's do. On the way back each element's fetch is
   reported and its frame resolved top-down into [o.w_*], snapping the
   address to the parent's element stride at each array level. [false]
   when a parent does not precede its child: a valid table numbers
   every parent first, so this is a corrupt table (a cycle, if
   followed), found before anything is reported; the walk is thus at
   most [index] steps, whatever the header's count says. *)
let rec walk_chain m o ~fetch ~table_ptr ~addr ~obj_lo ~obj_hi i =
  let ea = element_addr table_ptr i in
  let elem_size = Int64.to_int (Memory.read_u32 m (Int64.add ea 12L)) in
  let bound = Int64.to_int (Memory.read_u32 m (Int64.add ea 8L)) in
  let base = Int64.to_int (Memory.read_u32 m (Int64.add ea 4L)) in
  let parent = Memory.read_u16 m ea in
  if parent >= i then false
  else if
    if parent > 0 then
      walk_chain m o ~fetch ~table_ptr ~addr ~obj_lo ~obj_hi parent
    else begin
      (* element 0: the whole object, whose stride is its element size *)
      let e0 = element_addr table_ptr 0 in
      o.w_stride <- Int64.to_int (Memory.read_u32 m (Int64.add e0 12L));
      ignore (Memory.read_u32 m (Int64.add e0 8L));
      ignore (Memory.read_u32 m (Int64.add e0 4L));
      ignore (Memory.read_u16 m e0);
      o.w_lo <- obj_lo;
      o.w_hi <- obj_hi;
      fetch e0 Meta.element_bytes;
      o.o_walk_elems <- 1;
      true
    end
  then begin
    fetch ea Meta.element_bytes;
    o.o_walk_elems <- o.o_walk_elems + 1;
    let lo = o.w_lo and stride = o.w_stride in
    let elem_base =
      if stride <= 0 || stride >= o.w_hi - lo then lo
      else begin
        o.o_divisions <- o.o_divisions + 1;
        lo + ((addr - lo) / stride * stride)
      end
    in
    o.w_lo <- elem_base + base;
    o.w_hi <- elem_base + bound;
    o.w_stride <- elem_size;
    true
  end
  else false

(* Subobject bounds narrowing: the hardware layout-table walker
   (paper §3.4, Fig. 9c). A failure keeps the object bounds. *)
let narrow_via_table t o ~fetch ~table_ptr ~index ~ptr ~obj_lo ~obj_hi =
  fetch table_ptr 8;
  let failed outcome =
    o.o_walk_elems <- 1;
    o.o_divisions <- 0;
    retrieved o ptr ~lo:obj_lo ~hi:obj_hi outcome
  in
  let count = Meta.layout_count t table_ptr in
  let addr = Int64.to_int (Tag.addr ptr) in
  if count <= 0 then failed (Retrieved (Narrow_failed "bad layout table header"))
  else if index >= count then
    failed (Retrieved (Narrow_failed "subobject index out of range"))
  else if addr < obj_lo || addr >= obj_hi then
    failed (Retrieved (Narrow_failed "address outside object"))
  else if
    not
      (walk_chain (Meta.memory t) o ~fetch ~table_ptr ~addr ~obj_lo ~obj_hi
         index)
  then failed (Retrieved (Narrow_failed "parent cycle"))
  else
    (* clamp: an index inconsistent with the address (bad cast) must
       never widen protection past the object bounds *)
    let lo = Ifp_util.Bits.imax o.w_lo obj_lo in
    let hi = Ifp_util.Bits.imin o.w_hi obj_hi in
    if lo >= hi then
      retrieved o ptr ~lo:obj_lo ~hi:obj_hi
        (Retrieved (Narrow_failed "index inconsistent with address"))
    else retrieved o ptr ~lo ~hi (Retrieved Narrowed)

let promote ~narrow t o ~fetch ptr =
  match Tag.poison ptr with
  | Tag.Invalid | Tag.Freed -> bypass o ptr Bypass_poisoned
  | Tag.Valid | Tag.Oob -> (
    if Tag.is_null ptr then bypass o (Tag.make_legacy 0L) Bypass_null
    else
      let scheme = Tag.scheme ptr in
      match scheme with
      | Tag.Legacy -> bypass o ptr Bypass_legacy
      | Tag.Local_offset | Tag.Subheap | Tag.Global_table ->
        let ok =
          match scheme with
          | Tag.Local_offset -> Meta.Local_offset.probe t ptr ~fetch
          | Tag.Subheap -> Meta.Subheap.probe t ptr ~fetch
          | Tag.Global_table | Tag.Legacy -> Meta.Global_table.probe t ptr ~fetch
        in
        o.o_divisions <- 0;
        o.o_walk_elems <- 0;
        o.o_mac_checks <- (match scheme with Tag.Global_table -> 0 | _ -> 1);
        let f = Meta.found t in
        if not ok then begin
          o.o_ptr <- Tag.with_poison ptr Tag.Invalid;
          o.o_bounds <- Bounds.no_bounds;
          o.o_outcome <- Metadata_invalid f.f_reason
        end
        else if Meta.temporal t && (f.f_freed || f.f_gen <> Tag.gen ptr) then begin
          (* free-epoch check (temporal mode): the metadata resolved,
             but the allocation was freed — or this address has been
             recycled into a later generation. Poison as Freed and
             strip bounds; the access (or armed promote) traps. *)
          o.o_ptr <- Tag.with_poison ptr Tag.Freed;
          o.o_bounds <- Bounds.no_bounds;
          o.o_outcome <-
            Temporal_stale
              { freed = f.f_freed; gen_ptr = Tag.gen ptr; gen_meta = f.f_gen }
        end
        else
          let obj_lo = f.f_base in
          let obj_hi = obj_lo + f.f_size in
          let index = Tag.subobj ptr in
          if index <= 0 then
            retrieved o ptr ~lo:obj_lo ~hi:obj_hi (Retrieved No_subobject)
          else if not narrow then
            (* layout walker absent: object-granularity bounds only *)
            retrieved o ptr ~lo:obj_lo ~hi:obj_hi
              (Retrieved (Narrow_failed "narrowing disabled"))
          else if Int64.equal f.f_layout 0L then
            retrieved o ptr ~lo:obj_lo ~hi:obj_hi
              (Retrieved (Narrow_failed "no layout table"))
          else
            narrow_via_table t o ~fetch ~table_ptr:f.f_layout ~index ~ptr
              ~obj_lo ~obj_hi)

let run ?(narrow = true) t ptr =
  let fetches = ref [] in
  let o = create_out () in
  promote ~narrow t o ptr ~fetch:(fun addr bytes ->
      fetches := { Meta.addr; bytes } :: !fetches);
  {
    ptr = o.o_ptr;
    bounds = o.o_bounds;
    outcome = o.o_outcome;
    fetches = List.rev !fetches;
    divisions = o.o_divisions;
    walk_elems = o.o_walk_elems;
    mac_checks = o.o_mac_checks;
  }

let accessed_metadata r =
  match r.outcome with
  | Bypass_poisoned | Bypass_null | Bypass_legacy -> false
  | Metadata_invalid _ | Temporal_stale _ | Retrieved _ -> true
