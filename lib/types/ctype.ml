type t =
  | Void
  | I8
  | I16
  | I32
  | I64
  | F64
  | Ptr of t
  | Struct of string
  | Array of t * int

type field = { fname : string; fty : t }
type struct_def = { sname : string; fields : field list }

module Smap = Map.Make (String)

type tenv = struct_def Smap.t

let empty_tenv = Smap.empty

let declare env def =
  if Smap.mem def.sname env then
    invalid_arg ("Ctype.declare: duplicate struct " ^ def.sname);
  Smap.add def.sname def env

let lookup env name =
  match Smap.find_opt name env with
  | Some def -> def
  | None -> raise Not_found

let bindings env = Smap.bindings env

let rec alignof env = function
  | Void -> 1
  | I8 -> 1
  | I16 -> 2
  | I32 -> 4
  | I64 | F64 | Ptr _ -> 8
  | Array (elt, _) -> alignof env elt
  | Struct name ->
    let def = lookup env name in
    List.fold_left (fun a f -> max a (alignof env f.fty)) 1 def.fields

let rec sizeof env = function
  | Void -> 0
  | I8 -> 1
  | I16 -> 2
  | I32 -> 4
  | I64 | F64 | Ptr _ -> 8
  | Array (elt, n) -> n * sizeof env elt
  | Struct name as ty ->
    let def = lookup env name in
    let off =
      List.fold_left
        (fun off f ->
          Ifp_util.Bits.align_up off (alignof env f.fty) + sizeof env f.fty)
        0 def.fields
    in
    Ifp_util.Bits.align_up off (alignof env ty)

let fields_with_offsets env sname =
  let def = lookup env sname in
  let _, acc =
    List.fold_left
      (fun (off, acc) f ->
        let off = Ifp_util.Bits.align_up off (alignof env f.fty) in
        (off + sizeof env f.fty, (f, off) :: acc))
      (0, []) def.fields
  in
  List.rev acc

let field_offset env sname fname =
  let rec go = function
    | [] -> raise Not_found
    | (f, off) :: rest ->
      if String.equal f.fname fname then (off, f.fty) else go rest
  in
  go (fields_with_offsets env sname)

let field_type env sname fname =
  match List.find_opt (fun f -> String.equal f.fname fname) (lookup env sname).fields with
  | Some f -> f.fty
  | None -> raise Not_found

let is_scalar = function
  | I8 | I16 | I32 | I64 | F64 | Ptr _ -> true
  | Void | Struct _ | Array _ -> false

let rec equal a b =
  match (a, b) with
  | Void, Void | I8, I8 | I16, I16 | I32, I32 | I64, I64 | F64, F64 -> true
  | Ptr a, Ptr b -> equal a b
  | Struct a, Struct b -> String.equal a b
  | Array (a, n), Array (b, m) -> n = m && equal a b
  | (Void | I8 | I16 | I32 | I64 | F64 | Ptr _ | Struct _ | Array _), _ ->
    false

let rec pp env fmt = function
  | Void -> Format.pp_print_string fmt "void"
  | I8 -> Format.pp_print_string fmt "i8"
  | I16 -> Format.pp_print_string fmt "i16"
  | I32 -> Format.pp_print_string fmt "i32"
  | I64 -> Format.pp_print_string fmt "i64"
  | F64 -> Format.pp_print_string fmt "f64"
  | Ptr ty -> Format.fprintf fmt "%a*" (pp env) ty
  | Struct name -> Format.fprintf fmt "struct %s" name
  | Array (ty, n) -> Format.fprintf fmt "%a[%d]" (pp env) ty n

let to_string env ty = Format.asprintf "%a" (pp env) ty
