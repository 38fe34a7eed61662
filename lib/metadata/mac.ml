type key = int64

let bits = 48

let fresh_key rng = Ifp_util.Prng.next64 rng

let compute ~key fields =
  let h = List.fold_left Ifp_util.Prng.mix2 key fields in
  (* fold to 48 bits so the value fits the metadata slot *)
  Ifp_util.Bits.u48 (Int64.logxor h (Int64.shift_right_logical h 48))

let verify ~key fields ~mac = Int64.equal (compute ~key fields) (Ifp_util.Bits.u48 mac)

(* The fixed-arity checks promote runs: [compute]'s fold unrolled, with
   [Prng.mix2] open-coded so every intermediate stays an unboxed int64
   inside one function. The result equals [verify] on the same fields. *)

let gamma = 0x9E3779B97F4A7C15L

let[@inline] mix z =
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] step h x = mix (Int64.add (mix h) (Int64.mul x gamma))

let[@inline] folded h =
  Int64.to_int (Int64.logxor h (Int64.shift_right_logical h 48))
  land 0xFFFF_FFFF_FFFF

let verify3 ~key a b c ~mac = folded (step (step (step key a) b) c) = mac

let verify6 ~key a b c d e f ~mac =
  folded (step (step (step (step (step (step key a) b) c) d) e) f) = mac
