(* The field helpers are inlined at call sites in other libraries (tag
   decoding, the promote core, the memory model), so a field read or
   write there boxes no int64. *)
let[@inline] mask w =
  if w < 0 || w > 63 then invalid_arg "Bits.mask";
  Int64.pred (Int64.shift_left 1L w)

let[@inline] extract x ~lo ~width =
  Int64.logand (Int64.shift_right_logical x lo) (mask width)

let[@inline] insert x ~lo ~width v =
  let m = Int64.shift_left (mask width) lo in
  let v = Int64.shift_left (Int64.logand v (mask width)) lo in
  Int64.logor (Int64.logand x (Int64.lognot m)) v

let[@inline] insert_int x ~lo ~width v = insert x ~lo ~width (Int64.of_int v)

let[@inline] is_pow2 n = n > 0 && n land (n - 1) = 0

let log2_exact n =
  if not (is_pow2 n) then invalid_arg "Bits.log2_exact";
  let rec go k n = if n = 1 then k else go (k + 1) (n lsr 1) in
  go 0 n

let ceil_log2 n =
  if n < 1 then invalid_arg "Bits.ceil_log2";
  let rec go k p = if p >= n then k else go (k + 1) (p * 2) in
  go 0 1

let align_up x a =
  if not (is_pow2 a) then invalid_arg "Bits.align_up";
  (x + a - 1) land lnot (a - 1)

let align_down x a =
  if not (is_pow2 a) then invalid_arg "Bits.align_down";
  x land lnot (a - 1)

let align_up64 x a =
  if not (is_pow2 a) then invalid_arg "Bits.align_up64";
  let a64 = Int64.of_int a in
  Int64.logand
    (Int64.add x (Int64.sub a64 1L))
    (Int64.lognot (Int64.sub a64 1L))

let[@inline] align_down64 x a =
  if not (is_pow2 a) then invalid_arg "Bits.align_down64";
  Int64.logand x (Int64.lognot (Int64.sub (Int64.of_int a) 1L))

let[@inline] u48 x = Int64.logand x 0xFFFF_FFFF_FFFFL

(* int-typed so the compiler emits an immediate compare: [Stdlib.min] /
   [max] are polymorphic and go through [compare_val] on every call *)
let[@inline] imin (a : int) b = if a <= b then a else b
let[@inline] imax (a : int) b = if a >= b then a else b
