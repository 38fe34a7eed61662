type key = int64

let bits = 48

let fresh_key rng = Ifp_util.Prng.next64 rng

let compute ~key fields =
  let h = List.fold_left Ifp_util.Prng.mix2 key fields in
  (* fold to 48 bits so the value fits the metadata slot *)
  Ifp_util.Bits.u48 (Int64.logxor h (Int64.shift_right_logical h 48))

let verify ~key fields ~mac = Int64.equal (compute ~key fields) (Ifp_util.Bits.u48 mac)
