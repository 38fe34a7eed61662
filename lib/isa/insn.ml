type kind =
  | Promote
  | Ifpmac
  | Ldbnd
  | Stbnd
  | Ifpbnd
  | Ifpadd
  | Ifpidx
  | Ifpchk
  | Ifpextract
  | Ifpmd

let all =
  [ Promote; Ifpmac; Ldbnd; Stbnd; Ifpbnd; Ifpadd; Ifpidx; Ifpchk; Ifpextract; Ifpmd ]

let mnemonic = function
  | Promote -> "promote"
  | Ifpmac -> "ifpmac"
  | Ldbnd -> "ldbnd"
  | Stbnd -> "stbnd"
  | Ifpbnd -> "ifpbnd"
  | Ifpadd -> "ifpadd"
  | Ifpidx -> "ifpidx"
  | Ifpchk -> "ifpchk"
  | Ifpextract -> "ifpextract"
  | Ifpmd -> "ifpmd"

let poison_from_bounds p bounds =
  match bounds with
  | Bounds.No_bounds -> p
  | Bounds.Bounds { lo; hi } ->
    let a = Int64.to_int (Tag.addr p) in
    if lo <= a && a <= hi then
      (* pointing one past the end is legal (C off-by-one) but still Valid
         for tag purposes only when strictly inside; exactly [hi] is the
         recoverable state *)
      if a < hi then Tag.with_poison p Tag.Valid
      else Tag.with_poison p Tag.Oob
    else Tag.with_poison p Tag.Oob

let ifpadd p ~delta ~bounds =
  let old_addr = Tag.addr p in
  let new_addr = Int64.logand (Int64.add old_addr delta) Tag.addr_mask in
  let p' = Tag.with_addr p new_addr in
  let p' =
    match Tag.scheme p with
    | Tag.Legacy -> p'
    | Tag.Local_offset ->
      (* keep metadata address invariant across the move *)
      let meta = Tag.metadata_addr_local_offset p in
      let base = Ifp_util.Bits.align_down64 new_addr Tag.granule in
      let diff = Int64.to_int (Int64.sub meta base) in
      if diff < 0 || diff mod Tag.granule <> 0 || diff / Tag.granule > 63 then
        Tag.with_poison p' Tag.Invalid
      else Tag.with_granule_offset p' (diff / Tag.granule)
    | Tag.Subheap | Tag.Global_table -> p'
  in
  match Tag.poison p' with
  | Tag.Invalid | Tag.Freed -> p' (* freed stays freed across arithmetic *)
  | Tag.Valid | Tag.Oob -> poison_from_bounds p' bounds

let ifpidx p delta =
  match Tag.subobj_index p with
  | None -> p
  | Some old -> Tag.with_subobj_index p (old + delta)

let ifpbnd p ~size = Bounds.of_base_size (Tag.addr p) size

let check_result p ~bounds ~size = Bounds.contains bounds ~addr:(Tag.addr p) ~size

let ifpchk p ~bounds ~size =
  match bounds with
  | Bounds.No_bounds -> ()
  | Bounds.Bounds { lo; hi } ->
    if not (check_result p ~bounds ~size) then
      Trap.raise_trap
        (Trap.Bounds_violation
           { ptr = p; lo = Int64.of_int lo; hi = Int64.of_int hi; size })

let ifpextract p ~bounds = poison_from_bounds p bounds

let load_store_poison_check p =
  match Tag.poison p with
  | Tag.Valid -> ()
  | Tag.Oob | Tag.Invalid -> Trap.raise_trap (Trap.Poisoned_dereference p)
  | Tag.Freed ->
    (* outside temporal mode the spare poison pattern has no free-epoch
       meaning — it only arises from tag tampering, and decodes like any
       other poisoned pointer *)
    Trap.raise_trap (Trap.Poisoned_dereference p)

let load_store_poison_check_temporal p ~is_store =
  match Tag.poison p with
  | Tag.Valid -> ()
  | Tag.Oob | Tag.Invalid -> Trap.raise_trap (Trap.Poisoned_dereference p)
  | Tag.Freed ->
    if is_store then Trap.raise_trap (Trap.Write_to_freed { ptr = p })
    else Trap.raise_trap (Trap.Use_after_free { ptr = p })
