module Tag = Ifp_isa.Tag
module Bounds = Ifp_isa.Bounds

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

let bypass ptr outcome =
  { ptr; bounds = Bounds.no_bounds; outcome; fetches = []; divisions = 0;
    walk_elems = 0; mac_checks = 0 }

let poison_from_bounds ptr bounds =
  match bounds with
  | Bounds.No_bounds -> ptr
  | Bounds.Bounds { lo; hi } ->
    let a = Int64.to_int (Tag.addr ptr) in
    if lo <= a && a < hi then
      Tag.with_poison ptr Tag.Valid
    else Tag.with_poison ptr Tag.Oob

let element_fetch table_ptr i =
  { Meta.addr = Int64.add table_ptr (Int64.of_int (16 + (i * 16))); bytes = 16 }

(* Subobject bounds narrowing: the hardware layout-table walker
   (paper §3.4, Fig. 9c). Fetches the parent chain from memory, then
   resolves bounds top-down, snapping the address to the parent's element
   stride at each array level. *)
let narrow_via_table t ~table_ptr ~index ~addr ~obj_base ~obj_size =
  let header_fetch = { Meta.addr = table_ptr; bytes = 8 } in
  let count = Meta.layout_count t table_ptr in
  if count <= 0 then
    (None, [ header_fetch ], 0, 1, Narrow_failed "bad layout table header")
  else if index >= count then
    (None, [ header_fetch ], 0, 1, Narrow_failed "subobject index out of range")
  else
    let obj_hi = Int64.add obj_base (Int64.of_int obj_size) in
    if Int64.compare addr obj_base < 0 || Int64.compare addr obj_hi >= 0 then
      (None, [ header_fetch ], 0, 1, Narrow_failed "address outside object")
    else begin
      (* collect the parent chain (target .. child-of-root). A valid
         table numbers every parent before its children, so a parent at
         or after its child is a corrupt table (a cycle, if followed);
         the walk is thus at most [index] steps, whatever [count] says. *)
      let rec chain i acc =
        if i = 0 then Some acc
        else
          let e = Meta.read_element t table_ptr i in
          let parent = e.Ifp_types.Layout.parent in
          if parent >= i then None else chain parent ((i, e) :: acc)
      in
      match chain index [] with
      | None -> (None, [ header_fetch ], 0, 1, Narrow_failed "parent cycle")
      | Some chain_elems ->
        let elem0 = Meta.read_element t table_ptr 0 in
        let fetches =
          header_fetch :: element_fetch table_ptr 0
          :: List.map (fun (i, _) -> element_fetch table_ptr i) chain_elems
        in
        let walk_elems = List.length chain_elems + 1 in
        let divisions = ref 0 in
        let resolve (frame_lo, frame_hi, stride) (_, (e : Ifp_types.Layout.element)) =
          let extent = Int64.to_int (Int64.sub frame_hi frame_lo) in
          let off = Int64.to_int (Int64.sub addr frame_lo) in
          let elem_base =
            if stride <= 0 || stride >= extent then frame_lo
            else begin
              incr divisions;
              Int64.add frame_lo (Int64.of_int (off / stride * stride))
            end
          in
          ( Int64.add elem_base (Int64.of_int e.base),
            Int64.add elem_base (Int64.of_int e.bound),
            e.elem_size )
        in
        let lo, hi, _ =
          List.fold_left resolve (obj_base, obj_hi, elem0.elem_size) chain_elems
        in
        (* clamp: an index inconsistent with the address (bad cast) must
           never widen protection past the object bounds *)
        let lo = if Int64.compare lo obj_base < 0 then obj_base else lo in
        let hi = if Int64.compare hi obj_hi > 0 then obj_hi else hi in
        if Int64.compare lo hi >= 0 then
          (None, fetches, !divisions, walk_elems,
           Narrow_failed "index inconsistent with address")
        else (Some (lo, hi), fetches, !divisions, walk_elems, Narrowed)
    end

let run ?(narrow = true) t ptr =
  match Tag.poison ptr with
  | Tag.Invalid | Tag.Freed -> bypass ptr Bypass_poisoned
  | Tag.Valid | Tag.Oob ->
    if Tag.is_null ptr then bypass (Tag.make_legacy 0L) Bypass_null
    else begin
      match Tag.scheme ptr with
      | Tag.Legacy -> bypass ptr Bypass_legacy
      | Tag.Local_offset | Tag.Subheap | Tag.Global_table -> (
        let lookup_res, lookup_fetches, lookup_divs, macs =
          match Tag.scheme ptr with
          | Tag.Local_offset ->
            let r, f = Meta.Local_offset.lookup t ptr in
            (r, f, 0, 1)
          | Tag.Subheap ->
            let r, f, d = Meta.Subheap.lookup t ptr in
            (r, f, d, 1)
          | Tag.Global_table ->
            let r, f = Meta.Global_table.lookup t ptr in
            (r, f, 0, 0)
          | Tag.Legacy -> assert false
        in
        match lookup_res with
        | Error reason ->
          {
            ptr = Tag.with_poison ptr Tag.Invalid;
            bounds = Bounds.no_bounds;
            outcome = Metadata_invalid reason;
            fetches = lookup_fetches;
            divisions = lookup_divs;
            walk_elems = 0;
            mac_checks = macs;
          }
        | Ok { Meta.obj_base; obj_size; layout_ptr; gen; freed } ->
          if Meta.temporal t && (freed || gen <> Tag.gen ptr) then
            (* free-epoch check (temporal mode): the metadata resolved,
               but the allocation was freed — or this address has been
               recycled into a later generation. Poison as Freed and
               strip bounds; the access (or armed promote) traps. *)
            {
              ptr = Tag.with_poison ptr Tag.Freed;
              bounds = Bounds.no_bounds;
              outcome = Temporal_stale { freed; gen_ptr = Tag.gen ptr; gen_meta = gen };
              fetches = lookup_fetches;
              divisions = lookup_divs;
              walk_elems = 0;
              mac_checks = macs;
            }
          else
          let obj_bounds =
            Bounds.make ~lo:obj_base
              ~hi:(Int64.add obj_base (Int64.of_int obj_size))
          in
          let subobj = Tag.subobj_index ptr in
          let needs_narrow =
            match subobj with Some i when i > 0 -> Some i | Some _ | None -> None
          in
          (match needs_narrow with
          | None ->
            {
              ptr = poison_from_bounds ptr obj_bounds;
              bounds = obj_bounds;
              outcome = Retrieved No_subobject;
              fetches = lookup_fetches;
              divisions = lookup_divs;
              walk_elems = 0;
              mac_checks = macs;
            }
          | Some _ when not narrow ->
            (* layout walker absent: object-granularity bounds only *)
            {
              ptr = poison_from_bounds ptr obj_bounds;
              bounds = obj_bounds;
              outcome = Retrieved (Narrow_failed "narrowing disabled");
              fetches = lookup_fetches;
              divisions = lookup_divs;
              walk_elems = 0;
              mac_checks = macs;
            }
          | Some index ->
            if Int64.equal layout_ptr 0L then
              {
                ptr = poison_from_bounds ptr obj_bounds;
                bounds = obj_bounds;
                outcome = Retrieved (Narrow_failed "no layout table");
                fetches = lookup_fetches;
                divisions = lookup_divs;
                walk_elems = 0;
                mac_checks = macs;
              }
            else
              let narrowed, nfetches, ndivs, walk_elems, status =
                narrow_via_table t ~table_ptr:layout_ptr ~index
                  ~addr:(Tag.addr ptr) ~obj_base ~obj_size
              in
              let bounds =
                match narrowed with
                | Some (lo, hi) -> Bounds.make ~lo ~hi
                | None -> obj_bounds
              in
              {
                ptr = poison_from_bounds ptr bounds;
                bounds;
                outcome = Retrieved status;
                fetches = lookup_fetches @ nfetches;
                divisions = lookup_divs + ndivs;
                walk_elems;
                mac_checks = macs;
              }))
    end

let accessed_metadata r =
  match r.outcome with
  | Bypass_poisoned | Bypass_null | Bypass_legacy -> false
  | Metadata_invalid _ | Temporal_stale _ | Retrieved _ -> true
