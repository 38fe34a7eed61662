(* Table-driven reflected CRC-32, the IEEE 802.3 variant every zip/png
   tool agrees on: init 0xFFFFFFFF, process LSB-first against polynomial
   0xEDB88320, final xor 0xFFFFFFFF. Computed on native ints (the values
   fit in 32 bits), so the table is one unboxed block.

   The table is built eagerly at module initialisation: campaign worker
   domains checksum cache entries concurrently, and forcing a shared
   [lazy] from two domains at once raises [CamlinternalLazy.Undefined]
   in one of them. *)

let table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let string s =
  let c = ref 0xFFFFFFFF in
  for i = 0 to String.length s - 1 do
    let idx = (!c lxor Char.code (String.unsafe_get s i)) land 0xFF in
    c := Array.unsafe_get table idx lxor (!c lsr 8)
  done;
  Int32.of_int (!c lxor 0xFFFFFFFF)
