type t = {
  mutable base_instrs : int;
  ifp : int array;
  mutable cycles : int;
  mutable loads : int;
  mutable stores : int;
  mutable implicit_checks : int;
  mutable promotes_valid : int;
  mutable promotes_null : int;
  mutable promotes_legacy : int;
  mutable promotes_poisoned : int;
  mutable promotes_invalid_meta : int;
  mutable promotes_subobj : int;
  mutable narrows_ok : int;
  mutable narrows_failed : int;
  mutable global_objs : int;
  mutable global_objs_layout : int;
  mutable local_objs : int;
  mutable local_objs_layout : int;
  mutable heap_objs : int;
  mutable heap_objs_layout : int;
}

let create () =
  {
    base_instrs = 0;
    ifp = Array.make 10 0;
    cycles = 0;
    loads = 0;
    stores = 0;
    implicit_checks = 0;
    promotes_valid = 0;
    promotes_null = 0;
    promotes_legacy = 0;
    promotes_poisoned = 0;
    promotes_invalid_meta = 0;
    promotes_subobj = 0;
    narrows_ok = 0;
    narrows_failed = 0;
    global_objs = 0;
    global_objs_layout = 0;
    local_objs = 0;
    local_objs_layout = 0;
    heap_objs = 0;
    heap_objs_layout = 0;
  }

let[@inline] kind_index (k : Ifp_isa.Insn.kind) =
  match k with
  | Promote -> 0
  | Ifpmac -> 1
  | Ldbnd -> 2
  | Stbnd -> 3
  | Ifpbnd -> 4
  | Ifpadd -> 5
  | Ifpidx -> 6
  | Ifpchk -> 7
  | Ifpextract -> 8
  | Ifpmd -> 9

let[@inline] add_ifp t k n =
  let i = kind_index k in
  t.ifp.(i) <- t.ifp.(i) + n
let ifp_count t k = t.ifp.(kind_index k)
let ifp_total t = Array.fold_left ( + ) 0 t.ifp
let total_instrs t = t.base_instrs + ifp_total t

let promotes_total t =
  t.promotes_valid + t.promotes_null + t.promotes_legacy + t.promotes_poisoned
  + t.promotes_invalid_meta

let pp fmt t =
  Format.fprintf fmt
    "@[<v>instrs: %d base + %d ifp (promote %d, valid %d)@,\
     cycles: %d, loads %d, stores %d@,\
     objs: %d global (%d LT), %d local (%d LT), %d heap (%d LT)@,\
     narrows: %d ok, %d failed@]"
    t.base_instrs (ifp_total t)
    (ifp_count t Ifp_isa.Insn.Promote)
    t.promotes_valid t.cycles t.loads t.stores t.global_objs
    t.global_objs_layout t.local_objs t.local_objs_layout t.heap_objs
    t.heap_objs_layout t.narrows_ok t.narrows_failed
