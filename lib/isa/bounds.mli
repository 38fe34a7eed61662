(** Pointer bounds as held in an In-Fat Pointer Register (IFPR).

    Each IFPR is a (general-purpose register, 96-bit bounds register)
    pair; the bounds register holds two 48-bit addresses. Cleared bounds
    mean "not subject to checking" — the state of legacy and NULL
    pointers after a (bypassed) promote (paper §3.2, Fig. 5).

    The two addresses are immediate OCaml [int]s: a 48-bit address fits
    the 63-bit [int], so a bounds value is one block with no boxed
    [int64] inside and every bounds compare is an unboxed integer
    compare. Constructors still take [int64] words, as the ISA
    operations produce them, and keep their low 48 bits. *)

type t = No_bounds | Bounds of { lo : int; hi : int }
(** [lo] and [hi] are always in [[0, 2^48)]. *)

val no_bounds : t

val mask48 : int
(** [2^48 - 1]: the address part a bounds register keeps. *)

val make : lo:int64 -> hi:int64 -> t
(** Bounds [[lo, hi)], each truncated to 48 bits. *)

val of_base_size : int64 -> int -> t
(** [of_base_size base size] — the [ifpbnd] instruction: bounds of
    exactly [size] bytes starting at the address of [base]. *)

val contains : t -> addr:int64 -> size:int -> bool
(** Access-size check (paper §4.1): [lo <= addr && addr + size <= hi].
    [No_bounds] always passes. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
