open Ifp_util

type poison = Valid | Oob | Invalid | Freed

type scheme = Legacy | Local_offset | Subheap | Global_table

let granule = 16
let local_offset_max_object = 1008
let local_offset_max_elements = 64
let subheap_max_elements = 256
let global_table_entries = 4096
let gen_states = 16

(* field decoders are open-coded shift/mask (not [Bits.extract_int]):
   they run on every tagged-pointer operation and the extra call is
   measurable without flambda *)
let addr_bits = 44
let addr_mask = 0xFFF_FFFF_FFFFL
let addr p = Int64.logand p addr_mask
let with_addr p a = Bits.insert p ~lo:0 ~width:44 a

let gen p = Int64.to_int (Int64.shift_right_logical p 44) land 0xF
let with_gen p g = Bits.insert_int p ~lo:44 ~width:4 g

let poison p =
  match Int64.to_int (Int64.shift_right_logical p 62) land 3 with
  | 0 -> Valid
  | 1 -> Oob
  | 2 -> Invalid
  | _ -> Freed

let with_poison p s =
  let v = match s with Valid -> 0 | Oob -> 1 | Invalid -> 2 | Freed -> 3 in
  Bits.insert_int p ~lo:62 ~width:2 v

let scheme p =
  match Int64.to_int (Int64.shift_right_logical p 60) land 3 with
  | 0 -> Legacy
  | 1 -> Local_offset
  | 2 -> Subheap
  | _ -> Global_table

let with_scheme p s =
  let v =
    match s with Legacy -> 0 | Local_offset -> 1 | Subheap -> 2 | Global_table -> 3
  in
  Bits.insert_int p ~lo:60 ~width:2 v

let meta12 p = Int64.to_int (Int64.shift_right_logical p 48) land 0xFFF
let with_meta12 p v = Bits.insert_int p ~lo:48 ~width:12 v

let subobj_index p =
  match scheme p with
  | Local_offset -> Some (Int64.to_int (Int64.shift_right_logical p 48) land 0x3F)
  | Subheap -> Some (Int64.to_int (Int64.shift_right_logical p 48) land 0xFF)
  | Legacy | Global_table -> None

let subobj p =
  let f = Int64.to_int (Int64.shift_right_logical p 48) in
  match (f lsr 12) land 3 with
  | 1 -> f land 0x3F
  | 2 -> f land 0xFF
  | _ -> 0

let with_subobj_index p i =
  match scheme p with
  | Local_offset -> Bits.insert_int p ~lo:48 ~width:6 (Bits.imin i 63)
  | Subheap -> Bits.insert_int p ~lo:48 ~width:8 (Bits.imin i 255)
  | Legacy | Global_table -> p

let granule_offset p = Int64.to_int (Int64.shift_right_logical p 54) land 0x3F
let with_granule_offset p v = Bits.insert_int p ~lo:54 ~width:6 v

let creg_index p = Int64.to_int (Int64.shift_right_logical p 56) land 0xF

let table_index p = Int64.to_int (Int64.shift_right_logical p 48) land 0xFFF

let make_legacy a = Bits.u48 a

let make_local_offset ~addr:a ~granule_off ~subobj =
  let p = with_scheme (Int64.logand a addr_mask) Local_offset in
  let p = with_granule_offset p granule_off in
  Bits.insert_int p ~lo:48 ~width:6 subobj

let make_subheap ~addr:a ~creg ~subobj =
  let p = with_scheme (Int64.logand a addr_mask) Subheap in
  let p = Bits.insert_int p ~lo:56 ~width:4 creg in
  Bits.insert_int p ~lo:48 ~width:8 subobj

let make_global_table ~addr:a ~index =
  let p = with_scheme (Int64.logand a addr_mask) Global_table in
  with_meta12 p index

let is_null p = Int64.equal (addr p) 0L

let metadata_addr_local_offset p =
  let a = Bits.align_down64 (addr p) granule in
  Int64.add a (Int64.of_int (granule_offset p * granule))

let pp fmt p =
  let s =
    match scheme p with
    | Legacy -> "legacy"
    | Local_offset -> "local"
    | Subheap -> "subheap"
    | Global_table -> "global"
  in
  let po =
    match poison p with
    | Valid -> ""
    | Oob -> "!oob"
    | Invalid -> "!inv"
    | Freed -> "!freed"
  in
  Format.fprintf fmt "%s%s:0x%Lx[%d]" s po (addr p) (meta12 p)
