(** CRC-32 (IEEE 802.3, polynomial [0xEDB88320], reflected) over byte
    strings.

    Used by [lib/campaign]'s result cache to detect torn writes and bit
    rot deterministically, instead of relying on [Marshal] happening to
    raise on garbage: the checksum is stored in the entry header next to
    the payload it covers, and a mismatch on read quarantines the entry.
    Safe to call from several domains at once. *)

val string : string -> int32
(** [string s] is the CRC-32 of the whole of [s]. The standard check
    value holds: [string "123456789" = 0xCBF43926l]. *)
