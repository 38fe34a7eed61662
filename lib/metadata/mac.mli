(** 48-bit metadata authentication codes (paper §3.3).

    Object metadata lives in ordinary memory and could be corrupted by
    legacy code or temporal errors; the MAC, checked during [promote],
    detects tampering. The paper does not specify the PRF; we use a keyed
    splitmix-based mixer, which has the properties that matter for the
    reproduction: deterministic per key, and any single-field change
    flips the MAC with overwhelming probability. *)

type key = int64

val bits : int
(** MAC width in bits (48) — the span a fault injector may flip. *)

val fresh_key : Ifp_util.Prng.t -> key

val compute : key:key -> int64 list -> int64
(** 48-bit MAC over a field list (order-sensitive). *)

val verify : key:key -> int64 list -> mac:int64 -> bool

val verify3 : key:key -> int64 -> int64 -> int64 -> mac:int -> bool
(** [verify3 ~key a b c ~mac] is [verify ~key [a; b; c] ~mac] with a
    48-bit [mac] as an [int]; nothing is allocated for the field list. *)

val verify6 :
  key:key -> int64 -> int64 -> int64 -> int64 -> int64 -> int64 -> mac:int -> bool
(** The six-field twin of {!verify3}. *)
