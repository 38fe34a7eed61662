(** Object-metadata context: the three complementary metadata schemes
    (paper §3.3, Table 2), their in-memory encodings, and the shared
    layout-table store.

    The context owns:
    - the MAC key (a per-process secret held in a control register),
    - a bump region where layout tables are materialised — one table per
      distinct type, shared by every object of that type (paper §3.4),
    - the global metadata table (base held in a control register),
    - the 16 subheap control registers.

    In-memory encodings (the paper gives sizes but not field packings;
    ours are documented in DESIGN.md):
    - local-offset metadata, 16 B appended to the object at the next
      granule boundary: [size:u16 @0 | mac:u48 @2 | layout_ptr:u64 @8];
    - subheap block metadata, 32 B at a per-control-register offset into
      the power-of-two block:
      [slot_start:u32 | slot_end:u32 | slot_size:u32 | obj_size:u32 |
       layout_ptr:u64 | mac:u48 | flags:u16];
    - global-table row, 16 B:
      [base:u48 | size_lo:u16] [layout_ptr:u48 | size_hi:u16];
    - layout table: 16 B header [magic:u32 | count:u32 | pad] followed by
      16 B elements [parent:u16 | pad:u16 | base:u32 | bound:u32 |
      elem_size:u32]. *)

type t

type fetch = { addr : int64; bytes : int }
(** One metadata memory access performed by the promote hardware; the VM
    replays fetches through the D-cache model. *)

type obj_meta = {
  obj_base : int64;
  obj_size : int;
  layout_ptr : int64;  (** 0 when the object has no layout table *)
  gen : int;  (** free-epoch generation; 0 outside temporal mode *)
  freed : bool;  (** temporal mode: the allocation has been freed *)
}

type found = private {
  mutable f_base : int;  (** [obj_base] *)
  mutable f_size : int;
  mutable f_layout : int64;  (** [layout_ptr] *)
  mutable f_gen : int;
  mutable f_freed : bool;
  mutable f_reason : string;  (** why the last failed probe failed *)
}
(** The allocation-free result of a [probe]: one record per context,
    overwritten by every probe. After a probe that returned [true] the
    first five fields describe the object as {!obj_meta} would (with
    [f_base] the object base as an [int]); after [false], [f_reason]
    holds the [Error] string of the matching [lookup]. *)

type free_status = [ `Freed_ok | `Already_freed | `Invalid ]
(** Result of a temporal free-epoch transition: [`Already_freed] is the
    double-free witness; [`Invalid] means the record failed validation
    (clobbered or never registered). *)

val create :
  ?temporal:bool ->
  memory:Ifp_machine.Memory.t ->
  mac_key:Mac.key ->
  layout_region:int64 * int ->
  global_table:int64 * int ->
  unit ->
  t
(** [create ~memory ~mac_key ~layout_region:(base, size)
    ~global_table:(base, entries)] — both regions must already be mapped.
    [entries] is at most {!Ifp_isa.Tag.global_table_entries}; row 0 is
    reserved. [temporal] (default off) turns on free-epoch generations:
    every record carries a generation and freed flag, mirrored into the
    pointer tag and checked at promote; with it off, every encoding is
    bit-identical to the spatial-only design. *)

val memory : t -> Ifp_machine.Memory.t
val mac_key : t -> Mac.key

val temporal : t -> bool

val found : t -> found
(** The context's probe result record. *)

val global_table : t -> int64 * int
(** The global table's [(base, entries)], as given to {!create}. *)

(** {1 Live-entry registry}

    Every metadata record currently materialised in memory, tracked so
    the fault injector ({!Ifp_faultinject.Fault}) can pick tampering
    targets without re-deriving each scheme's placement rules. The
    registry is bookkeeping only — lookups never consult it. *)

type scheme = Scheme_local_offset | Scheme_subheap | Scheme_global_table

type live_entry = {
  scheme : scheme;
  meta_addr : int64;
  meta_bytes : int;  (** record length: 16, 32 or 16 bytes *)
  mac_off : int option;
      (** byte offset of the 48-bit MAC within the record; [None] for
          global-table rows, which carry no MAC *)
}

val live_entries : t -> live_entry list
(** Currently-registered records, sorted by address (deterministic). *)

val wipe_entry : t -> live_entry -> unit
(** Zero the record in memory (attacker memset / stale-metadata fault)
    without touching allocator bookkeeping. *)

val mark_freed : t -> live_entry -> free_status
(** A {e legitimate} free of a live record, as the allocator free path
    would perform it — the uaf_use / double_free fault classes. In
    temporal mode: bump the generation, set the freed flag, re-MAC where
    the scheme carries a MAC (for a subheap record, every slot of the
    block enters the freed epoch). Outside temporal mode the record is
    wiped, which is what the spatial-only free does. Contrast with
    {!wipe_entry}: a wipe garbles the record (classified as metadata
    tampering); [mark_freed] keeps it valid but stale (classified as a
    temporal fault). *)

(** {1 Layout tables} *)

val intern_layout : t -> Ifp_types.Ctype.tenv -> Ifp_types.Ctype.t -> int64
(** Materialise (once) the layout table for a type and return its
    address; returns [0L] for types with no subobjects (single-element
    tables), for which no narrowing is ever needed. *)

val header_bytes : int
(** 16: the layout-table header; element [i] is at
    [table + header_bytes + i * element_bytes]. *)

val element_bytes : int
(** 16. *)

val layout_count : t -> int64 -> int
(** Element count read from a table header; 0 if the header is invalid. *)

val read_element : t -> int64 -> int -> Ifp_types.Layout.element
(** [read_element t table_ptr i] decodes element [i] from memory. *)

val layout_bytes_used : t -> int
(** Total bytes of layout tables materialised so far (memory-overhead
    accounting). *)

(** {1 Local-offset scheme} *)

module Local_offset : sig
  val metadata_size : int
  (** 16. *)

  val footprint : size:int -> int
  (** Bytes an allocation of [size] needs including padding to the
      granule and the appended metadata. *)

  val fits : size:int -> bool
  (** Object size within the scheme's 1008-byte limit. *)

  val register : t -> base:int64 -> size:int -> layout_ptr:int64 -> int64
  (** Write the metadata (at [base + align_up size granule]) and return
      the tagged pointer to [base]. [base] must be granule-aligned and
      the footprint must be mapped. Charged as [ifpmac + stores] by the
      caller. *)

  val deregister : t -> int64 -> unit
  (** Invalidate the metadata of a pointer previously returned by
      {!register} (zeroes the metadata block). Spatial-only free. *)

  val deregister_temporal : t -> int64 -> free_status
  (** Temporal free: validate the record, bump its generation, set the
      freed flag, re-MAC. The record stays in memory as the free-epoch
      witness. [`Already_freed] is the caller's double-free trap cue. *)

  val probe : t -> int64 -> fetch:(int64 -> int -> unit) -> bool
  (** The lookup the promote hardware performs: reports each metadata
      fetch [(addr, bytes)] through [fetch], in order, and leaves its
      result in {!found}. Allocates no list, tuple or option. *)

  val lookup : t -> int64 -> (obj_meta, string) result * fetch list
  (** {!probe} with its fetches collected and its result copied out. *)
end

(** {1 Subheap scheme} *)

module Subheap : sig
  type creg = { block_size_log2 : int; metadata_offset : int64 }

  val n_cregs : int
  (** 16. *)

  val set_creg : t -> int -> creg option -> unit
  val get_creg : t -> int -> creg option

  val block_metadata_size : int
  (** 32. *)

  val temporal_metadata_size : int
  (** 64: the 32-byte header followed by a 256-bit freed-slot bitmap
      (temporal mode only). *)

  val record_size : t -> int
  (** 64 in temporal mode, 32 otherwise. *)

  val write_block_metadata :
    t ->
    creg:int ->
    block_base:int64 ->
    slot_start:int ->
    slot_end:int ->
    slot_size:int ->
    obj_size:int ->
    layout_ptr:int64 ->
    unit
  (** [creg] names the control register describing this block's size and
      metadata offset; it must be configured. *)

  val clear_block_metadata : t -> creg:int -> block_base:int64 -> unit
  (** In temporal mode the block generation survives the clear, bumped
      by one — pointers into the previous tenant of a recycled block
      mismatch on promote. *)

  val block_gen : t -> creg:int -> block_base:int64 -> int
  (** Current block generation (0 outside temporal mode). *)

  val tag_pointer : creg:int -> addr:int64 -> int64

  val slot_mark_freed :
    t -> creg:int -> block_base:int64 -> slot:int -> free_status
  (** Temporal free of one slot: set its bit in the freed-slot bitmap.
      [`Already_freed] is the caller's double-free trap cue. *)

  val probe : t -> int64 -> fetch:(int64 -> int -> unit) -> bool
  (** As {!Local_offset.probe}. A fault in the 32-byte header reads is an
      invalid-metadata result; in temporal mode the generation and
      bitmap reads that follow raise [Memory.Fault] instead. *)

  val lookup : t -> int64 -> (obj_meta, string) result * fetch list * int
  (** {!probe} with its fetches collected. The third component, the
      extra division count, is always 0: the slot-size constraint makes
      the slot-index division a shift. *)
end

(** {1 Global-table scheme} *)

module Global_table : sig
  val register : t -> base:int64 -> size:int -> layout_ptr:int64 -> int64 option
  (** Claim a free row; [None] when the table is full. Returns the tagged
      pointer. *)

  val deregister : t -> int64 -> unit
  (** Free the row named by the pointer's index field (spatial-only). *)

  val deregister_temporal : t -> int64 -> free_status
  (** Temporal free: the row is quarantined — it keeps base/size so
      stale promotes still resolve, gains the freed bit and a bumped
      generation, and never returns to the free list. *)

  val rows_in_use : t -> int

  val probe : t -> int64 -> fetch:(int64 -> int -> unit) -> bool
  (** As {!Local_offset.probe}. *)

  val lookup : t -> int64 -> (obj_meta, string) result * fetch list
end
