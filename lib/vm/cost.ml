let alu = 1
let mul = 3
let div = 12
let fp = 4
let branch = 1
let call = 5
let mem = 1
let miss_penalty = 20
let promote_base = 2
let walk_per_elem = 2
let mac_check = 1

let[@inline] ifp_cycles (k : Ifp_isa.Insn.kind) =
  match k with
  | Promote -> promote_base
  | Ifpmac -> 4
  | Ldbnd | Stbnd -> 2
  | Ifpbnd | Ifpadd | Ifpidx | Ifpchk | Ifpextract | Ifpmd -> 1
