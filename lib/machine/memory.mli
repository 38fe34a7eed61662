(** Sparse simulated physical memory over a 48-bit address space.

    Memory is organised in 4 KiB pages allocated on demand, but only
    within regions explicitly made accessible with {!map}; touching an
    unmapped address raises {!Fault}, which models the page-permission
    traps the hardware prototype relies on (e.g. dereferencing a wild
    pointer).

    All multi-byte accesses are little-endian, matching RV64. Addresses
    are [int64] values whose upper 16 bits are ignored (pointer tags are
    stripped by the caller, see {!Ifp_isa.Tag}). *)

type page = { data : Bytes.t }
(** One 4 KiB page. *)

module Pages : Hashtbl.S with type key = int
(** Materialised pages by page number, hashed by the identity. *)

type t = {
  pages : page Pages.t;
  mutable mapped : (int * int) list;
      (** sorted disjoint inclusive page-number intervals *)
  pcache_pno : int array;
      (** direct-mapped lookup cache, indexed by {!slot}; -1 = empty *)
  pcache_page : page array;
}
(** The representation is concrete so the closure-compiled VM engine can
    stage page-cache probes inline at its access sites (a hit is then a
    shift, the {!slot} hash, one array compare and a [Bytes] access — no
    calls). Page [pno] can only be cached in entry [slot pno] of
    [pcache_pno]/[pcache_page]; a staged probe must index them with
    {!slot}, as every accessor here does. The arrays are created once
    and never replaced, so capturing them at staging time is sound;
    {!unmap} and {!release} invalidate their entries in place. Outside
    that use, treat [t] as abstract and go through the accessors below. *)

type fault_kind = Unmapped | Misaligned

exception Fault of fault_kind * int64
(** [Fault (kind, addr)] — a memory access trapped at [addr]. *)

val create : unit -> t

val page_size : int
(** 4096. *)

val page_shift : int
(** [log2 page_size]. *)

val slot : int -> int
(** [slot pno] is the entry of the 256-entry page-lookup cache for page
    number [pno]: [(pno + pno lsr 8) land 255]. The region bases of
    the memory map are aligned to large powers of two, so their low
    page-number bits agree; the fold of the next eight bits keeps their
    first pages in distinct entries. *)

val map : t -> base:int64 -> size:int -> unit
(** Make every page overlapping [\[base, base+size)] accessible,
    zero-filled. Idempotent. A zero-size map is a no-op. *)

val unmap : t -> base:int64 -> size:int -> unit
(** Revoke accessibility (contents are discarded). Only whole pages fully
    inside the range are unmapped. *)

val release : t -> unit
(** [release m] ends [m]'s run: its pages go to the calling domain's
    page pool, up to {!pool_cap} pages held, for the next page a memory
    on that domain materialises (wiped to zeros first), and [m] maps
    nothing any more, so a later access raises [Fault (Unmapped, _)].
    Called once per run, when the run's result has been read. *)

val pool_cap : int
(** The most pages a domain's pool holds: 32 (128 KiB). *)

val pooled_pages : unit -> int
(** Pages the calling domain's pool holds now. *)

val is_mapped : t -> int64 -> bool

val read_u8 : t -> int64 -> int
val read_u16 : t -> int64 -> int
val read_u32 : t -> int64 -> int64
val read_u64 : t -> int64 -> int64

val write_u8 : t -> int64 -> int -> unit

val xor_u8 : t -> int64 -> int -> unit
(** [xor_u8 m a mask] flips the bits of [mask] in the byte at [a] — the
    fault-injection bit-flip primitive. Faults like any other access. *)


val write_u16 : t -> int64 -> int -> unit
val write_u32 : t -> int64 -> int64 -> unit
val write_u64 : t -> int64 -> int64 -> unit
(** Multi-byte stores are atomic with respect to faults: a store that
    straddles a page boundary validates both pages before committing any
    byte, so a raised {!Fault} leaves memory unchanged. *)

val read_size : t -> int64 -> bytes:int -> int64
(** [read_size m a ~bytes] for [bytes] in {1,2,4,8}. *)

val write_size : t -> int64 -> bytes:int -> int64 -> unit

val fill : t -> int64 -> len:int -> char -> unit
val blit_string : t -> int64 -> string -> unit
val read_string : t -> int64 -> len:int -> string

val mapped_bytes : t -> int
(** Total bytes currently mapped. *)
