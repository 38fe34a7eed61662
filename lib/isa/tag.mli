(** Pointer-tag codec (paper Fig. 4, plus the temporal extension).

    A pointer is a 64-bit word whose top 20 bits are the tag:

    {v
    63..62  poison bits        00 valid / 01 out-of-bounds-recoverable /
                               10 invalid / 11 freed (temporal)
    61..60  scheme selector    00 legacy / 01 local-offset / 10 subheap /
                               11 global-table
    59..48  scheme metadata + subobject index, per scheme:
              local-offset:  59..54 granule offset, 53..48 subobject index
              subheap:       59..56 control-register index,
                             55..48 subobject index
              global-table:  59..48 table index (no subobject index)
    47..44  free-epoch generation (temporal mode; all-zero otherwise)
    43..0   address
    v}

    The virtual address is 44 bits; the nibble above it carries the
    allocation's free-epoch generation, mirrored from the object's
    metadata record when temporal mode is on and checked again at
    promote. Outside temporal mode the nibble is always zero, so every
    spatial-only encoding is bit-identical to the paper's 48-bit layout.

    The all-zero tag is a canonical user-space address, i.e. a legacy
    pointer — exactly the compatibility property the paper relies on. *)

type poison = Valid | Oob | Invalid | Freed

type scheme = Legacy | Local_offset | Subheap | Global_table

val granule : int
(** Local-offset scheme granule: 16 bytes. *)

val local_offset_max_object : int
(** 1008 bytes: (2^6 - 1) granules. *)

val local_offset_max_elements : int
(** 64 layout-table elements (6-bit subobject index). *)

val subheap_max_elements : int
(** 256 layout-table elements (8-bit subobject index). *)

val global_table_entries : int
(** 4096 rows (12-bit index). *)

val gen_states : int
(** 16 free-epoch generations (4-bit counter); reuse number 16 aliases
    generation 0 — the same ABA window as MTE's 4-bit memory tags. *)

val addr_bits : int
(** 44: virtual-address width. *)

val addr_mask : int64
(** [2^addr_bits - 1] — the address field of a tagged word. *)

val addr : int64 -> int64
(** Low 44 bits. *)

val with_addr : int64 -> int64 -> int64
(** [with_addr p a] keeps the tag (including the generation nibble) of
    [p], replaces the address. *)

val gen : int64 -> int
(** Free-epoch generation nibble (bits 47..44). *)

val with_gen : int64 -> int -> int64

val poison : int64 -> poison
val with_poison : int64 -> poison -> int64

val scheme : int64 -> scheme
val with_scheme : int64 -> scheme -> int64

val meta12 : int64 -> int
(** Raw 12-bit scheme-metadata/subobject field. *)

val with_meta12 : int64 -> int -> int64

val subobj_index : int64 -> int option
(** Subobject index for schemes that have one; [None] for legacy and
    global-table pointers. *)

val subobj : int64 -> int
(** {!subobj_index} with [None] read as 0, which promote treats the same
    way (no subobject to narrow to); no option is allocated. *)

val with_subobj_index : int64 -> int -> int64
(** Saturating write of the subobject-index field; no-op for legacy and
    global-table pointers. *)

val granule_offset : int64 -> int
(** Local-offset granule-offset field (meaningless for other schemes). *)

val with_granule_offset : int64 -> int -> int64

val creg_index : int64 -> int
(** Subheap control-register index field. *)

val table_index : int64 -> int
(** Global-table index field. *)

val make_legacy : int64 -> int64
(** Canonical pointer: tag zeroed. *)

val make_local_offset : addr:int64 -> granule_off:int -> subobj:int -> int64
val make_subheap : addr:int64 -> creg:int -> subobj:int -> int64
val make_global_table : addr:int64 -> index:int -> int64

val is_null : int64 -> bool
(** Address part is zero. *)

val metadata_addr_local_offset : int64 -> int64
(** For a local-offset pointer: [align_down(addr, granule) +
    granule_offset * granule] — the address of the object metadata. *)

val pp : Format.formatter -> int64 -> unit
