(** Set-associative L1 data-cache model (tag-only, LRU, write-allocate).

    Only hit/miss behaviour is modelled — data always comes from
    {!Memory}. The default geometry matches the CVA6 core used by the
    paper's prototype: 32 KiB, 8-way, 64-byte lines. *)

type access = Load | Store

type t

val create : ?size_bytes:int -> ?ways:int -> ?line_bytes:int -> unit -> t

val access : t -> int64 -> access -> bool
(** [access t addr kind] touches the line containing [addr]; returns
    [true] on a hit. A miss fills the line (evicting LRU). *)

val access_range : t -> int64 -> bytes:int -> access -> int
(** Touch every line overlapped by [\[addr, addr+bytes)]; returns the
    number of misses. An empty range ([bytes <= 0]) touches nothing and
    returns 0. *)

val line_shift : t -> int
(** log2 of the line size. *)

val access_line : t -> int -> bool
(** [access_line t line] is {!access} on a line number: an address
    shifted right by {!line_shift}, below [2^48]. Inlined at call sites
    in other libraries; it allocates nothing. *)

val accesses : t -> int
val misses : t -> int
val flush : t -> unit
(** Invalidate all lines and reset statistics. *)

val release : t -> unit
(** [release t] ends [t]'s run: its line arrays go to the calling
    domain, for the next model it creates with the same geometry
    (invalidated, with clock and statistics reset). [t] is left a
    one-set model of its own, which no result should read. Called once
    per run, after its statistics have been read. *)
