type t = No_bounds | Bounds of { lo : int; hi : int }

let no_bounds = No_bounds

let mask48 = 0xFFFF_FFFF_FFFF

(* the low 48 bits of a word; [Int64.to_int] drops only bit 63 *)
let[@inline] u48 x = Int64.to_int x land mask48

let make ~lo ~hi = Bounds { lo = u48 lo; hi = u48 hi }

let of_base_size base size =
  let lo = u48 base in
  Bounds { lo; hi = (lo + size) land mask48 }

let contains t ~addr ~size =
  match t with
  | No_bounds -> true
  | Bounds { lo; hi } ->
    let a = u48 addr in
    lo <= a && a + size <= hi

let equal a b =
  match (a, b) with
  | No_bounds, No_bounds -> true
  | Bounds a, Bounds b -> a.lo = b.lo && a.hi = b.hi
  | (No_bounds | Bounds _), _ -> false

let pp fmt = function
  | No_bounds -> Format.pp_print_string fmt "<no bounds>"
  | Bounds { lo; hi } -> Format.fprintf fmt "[0x%x, 0x%x)" lo hi
