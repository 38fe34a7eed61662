(** Bit-field manipulation helpers over [int64] machine words.

    All field positions are given as [(lo, width)] pairs where [lo] is the
    index of the least-significant bit of the field (bit 0 = LSB) and
    [width] is the field width in bits, [1 <= width <= 63]. *)

val mask : int -> int64
(** [mask w] is an [int64] with the low [w] bits set. [0 <= w <= 63]. *)

val extract : int64 -> lo:int -> width:int -> int64
(** [extract x ~lo ~width] reads the field as an unsigned value. *)

val insert : int64 -> lo:int -> width:int -> int64 -> int64
(** [insert x ~lo ~width v] replaces the field with the low [width] bits
    of [v]. *)

val insert_int : int64 -> lo:int -> width:int -> int -> int64

val is_pow2 : int -> bool
(** [is_pow2 n] holds when [n] is a positive power of two. *)

val log2_exact : int -> int
(** [log2_exact n] for a positive power of two [n].
    @raise Invalid_argument otherwise. *)

val ceil_log2 : int -> int
(** [ceil_log2 n] is the smallest [k] with [2^k >= n]; [n >= 1]. *)

val align_up : int -> int -> int
(** [align_up x a] rounds [x] up to the next multiple of [a] ([a] power
    of two). *)

val align_down : int -> int -> int

val align_up64 : int64 -> int -> int64
val align_down64 : int64 -> int -> int64

val u48 : int64 -> int64
(** Truncate to the low 48 bits (canonical address part of a pointer). *)

val imin : int -> int -> int
(** [Stdlib.min] on [int]: an immediate compare instead of the
    polymorphic [compare_val] that [min] costs at every call. *)

val imax : int -> int -> int
