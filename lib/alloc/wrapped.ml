open Alloc_intf
module Meta = Ifp_metadata.Meta
module Tag = Ifp_isa.Tag
module Trap = Ifp_isa.Trap

let create ~meta ~tenv ~base_alloc =
  let unprotected = ref 0 in
  let quarantined = ref 0 in
  let temporal = Meta.temporal meta in
  let layout_of cty =
    match cty with
    | None -> 0L
    | Some ty -> Meta.intern_layout meta tenv ty
  in
  let malloc ~size ~cty =
    let size = Ifp_util.Bits.imax size 1 in
    let layout_ptr = layout_of cty in
    if Meta.Local_offset.fits ~size then begin
      let footprint = Meta.Local_offset.footprint ~size in
      let raw, c = base_alloc.malloc ~size:footprint ~cty:None in
      let tagged = Meta.Local_offset.register meta ~base:raw ~size ~layout_ptr in
      let meta_addr = Tag.metadata_addr_local_offset tagged in
      let c' =
        cost 30
          ~ifp_instrs:[ (Ifp_isa.Insn.Ifpmac, 1); (Ifp_isa.Insn.Ifpmd, 1) ]
          ~touches:[ (meta_addr, Meta.Local_offset.metadata_size) ]
      in
      (tagged, add_cost c c')
    end
    else begin
      let raw, c = base_alloc.malloc ~size ~cty:None in
      match Meta.Global_table.register meta ~base:raw ~size ~layout_ptr with
      | Some tagged ->
        (tagged, add_cost c (cost 50 ~ifp_instrs:[ (Ifp_isa.Insn.Ifpmd, 1) ]))
      | None ->
        incr unprotected;
        (raw, add_cost c (cost 20))
    end
  in
  (* Temporal free: the metadata record becomes the free-epoch witness
     (generation bumped, freed flag set) and the payload is quarantined —
     never returned to the base allocator, so the address range cannot be
     recycled into a colliding generation. A free of an already-freed
     record is the architectural double-free trap. *)
  let free_temporal ptr =
    let obj_size lookup_res =
      match lookup_res with Ok m -> m.Meta.obj_size | Error _ -> 0
    in
    match Tag.scheme ptr with
    | Tag.Local_offset -> (
      let size = obj_size (fst (Meta.Local_offset.lookup meta ptr)) in
      match Meta.Local_offset.deregister_temporal meta ptr with
      | `Already_freed -> Trap.raise_trap (Trap.Double_free { ptr })
      | `Invalid -> cost 15
      | `Freed_ok ->
        let fp = Meta.Local_offset.footprint ~size in
        quarantined := !quarantined + fp;
        note_free (base_alloc.stats ()) ~payload:fp;
        cost 20
          ~ifp_instrs:[ (Ifp_isa.Insn.Ifpmac, 1) ]
          ~touches:
            [ (Tag.metadata_addr_local_offset ptr, Meta.Local_offset.metadata_size) ])
    | Tag.Global_table -> (
      let size = obj_size (fst (Meta.Global_table.lookup meta ptr)) in
      match Meta.Global_table.deregister_temporal meta ptr with
      | `Already_freed -> Trap.raise_trap (Trap.Double_free { ptr })
      | `Invalid -> cost 15
      | `Freed_ok ->
        quarantined := !quarantined + size;
        note_free (base_alloc.stats ()) ~payload:size;
        cost 35)
    | Tag.Legacy | Tag.Subheap ->
      (* unprotected allocation (no metadata): no epoch to retire, the
         base free proceeds as in spatial mode *)
      base_alloc.free (Tag.addr ptr)
  in
  let free ptr =
    if Tag.is_null ptr then zero_cost
    else if temporal then free_temporal ptr
    else begin
      let raw = Tag.addr ptr in
      let extra =
        match Tag.scheme ptr with
        | Tag.Local_offset ->
          Meta.Local_offset.deregister meta ptr;
          cost 15
            ~touches:
              [ (Tag.metadata_addr_local_offset ptr, Meta.Local_offset.metadata_size) ]
        | Tag.Global_table ->
          Meta.Global_table.deregister meta ptr;
          cost 30
        | Tag.Legacy | Tag.Subheap -> zero_cost
      in
      add_cost (base_alloc.free raw) extra
    end
  in
  {
    name = "wrapped";
    malloc;
    free;
    owns = (fun p -> base_alloc.owns p);
    stats = (fun () -> (base_alloc.stats) ());
    extra_stats =
      (fun () ->
        ("unprotected_allocs", !unprotected)
        :: (if temporal then [ ("quarantined_bytes", !quarantined) ] else []));
  }

let unprotected_allocs t =
  match List.assoc_opt "unprotected_allocs" (t.extra_stats ()) with
  | Some n -> n
  | None -> 0
