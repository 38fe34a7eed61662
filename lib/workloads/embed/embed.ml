(* Reads MiniC files, checks each with [Frontend.load] and prints an
   OCaml module with one [Ir.program Lazy.t] per file, named after the
   file ([wolfcrypt-dh.minic] is [wolfcrypt_dh]). A file that does not
   check prints its located error and exits 1, which fails the build.

   Usage: embed FILE.minic... > programs.ml *)

open Ifp_compiler
module Ctype = Ifp_types.Ctype

let sp = Printf.sprintf
let list ?(sep = "; ") f xs = "[" ^ String.concat sep (List.map f xs) ^ "]"

let int64 x = if Int64.compare x 0L < 0 then sp "(%LdL)" x else sp "%LdL" x

(* exact: a hex literal for a finite float, the bits otherwise *)
let float f =
  if Float.is_finite f then sp "(%h)" f
  else sp "(Int64.float_of_bits %s)" (int64 (Int64.bits_of_float f))

let rec ty : Ctype.t -> string = function
  | Void -> "Ctype.Void"
  | I8 -> "Ctype.I8"
  | I16 -> "Ctype.I16"
  | I32 -> "Ctype.I32"
  | I64 -> "Ctype.I64"
  | F64 -> "Ctype.F64"
  | Ptr t -> sp "Ctype.Ptr (%s)" (ty t)
  | Struct s -> sp "Ctype.Struct %S" s
  | Array (t, n) -> sp "Ctype.Array (%s, %d)" (ty t) n

let binop : Ir.binop -> string = function
  | Add -> "Add" | Sub -> "Sub" | Mul -> "Mul" | Div -> "Div" | Rem -> "Rem"
  | BAnd -> "BAnd" | BOr -> "BOr" | BXor -> "BXor" | Shl -> "Shl" | Shr -> "Shr"
  | LAnd -> "LAnd" | LOr -> "LOr" | Eq -> "Eq" | Ne -> "Ne" | Lt -> "Lt"
  | Le -> "Le" | Gt -> "Gt" | Ge -> "Ge" | FAdd -> "FAdd" | FSub -> "FSub"
  | FMul -> "FMul" | FDiv -> "FDiv" | FEq -> "FEq" | FLt -> "FLt" | FLe -> "FLe"

let unop : Ir.unop -> string = function
  | Neg -> "Neg" | LNot -> "LNot" | BNot -> "BNot" | FNeg -> "FNeg"
  | I2F -> "I2F" | F2I -> "F2I"

let rec expr : Ir.expr -> string = function
  | Int x -> sp "Ir.Int %s" (int64 x)
  | Float f -> sp "Ir.Float %s" (float f)
  | Var x -> sp "Ir.Var %S" x
  | Binop (op, a, b) -> sp "Ir.Binop (Ir.%s, %s, %s)" (binop op) (expr a) (expr b)
  | Unop (op, a) -> sp "Ir.Unop (Ir.%s, %s)" (unop op) (expr a)
  | Load (t, a) -> sp "Ir.Load (%s, %s)" (ty t) (expr a)
  | Addr_local x -> sp "Ir.Addr_local %S" x
  | Addr_global g -> sp "Ir.Addr_global %S" g
  | Load_global g -> sp "Ir.Load_global %S" g
  | Gep (t, b, steps) -> sp "Ir.Gep (%s, %s, %s)" (ty t) (expr b) (list step steps)
  | Call (f, args) -> sp "Ir.Call (%S, %s)" f (list expr args)
  | Malloc (t, n) -> sp "Ir.Malloc (%s, %s)" (ty t) (expr n)
  | Malloc_bytes n -> sp "Ir.Malloc_bytes (%s)" (expr n)
  | Malloc_sized (t, n) -> sp "Ir.Malloc_sized (%s, %s)" (ty t) (expr n)
  | Cast (t, a) -> sp "Ir.Cast (%s, %s)" (ty t) (expr a)
  | Ifp_promote a -> sp "Ir.Ifp_promote (%s)" (expr a)

and step : Ir.gstep -> string = function
  | S_field f -> sp "Ir.S_field %S" f
  | S_index i -> sp "Ir.S_index (%s)" (expr i)

let rec stmt : Ir.stmt -> string = function
  | Let (x, t, e) -> sp "Ir.Let (%S, %s, %s)" x (ty t) (expr e)
  | Assign (x, e) -> sp "Ir.Assign (%S, %s)" x (expr e)
  | Decl_local (x, t) -> sp "Ir.Decl_local (%S, %s)" x (ty t)
  | Store (t, a, v) -> sp "Ir.Store (%s, %s, %s)" (ty t) (expr a) (expr v)
  | Store_global (g, e) -> sp "Ir.Store_global (%S, %s)" g (expr e)
  | If (e, t, f) -> sp "Ir.If (%s,\n%s,\n%s)" (expr e) (block t) (block f)
  | While (e, b) -> sp "Ir.While (%s,\n%s)" (expr e) (block b)
  | Return None -> "Ir.Return None"
  | Return (Some e) -> sp "Ir.Return (Some (%s))" (expr e)
  | Expr e -> sp "Ir.Expr (%s)" (expr e)
  | Free e -> sp "Ir.Free (%s)" (expr e)
  | Break -> "Ir.Break"
  | Continue -> "Ir.Continue"
  | Ifp_register_local x -> sp "Ir.Ifp_register_local %S" x
  | Ifp_deregister_local x -> sp "Ir.Ifp_deregister_local %S" x

and block b = list ~sep:";\n" stmt b

let field (f : Ctype.field) = sp "{ Ctype.fname = %S; fty = %s }" f.fname (ty f.fty)

let program (p : Ir.program) =
  let struct_def (_, (d : Ctype.struct_def)) =
    sp "{ Ctype.sname = %S; fields = %s }" d.sname (list field d.fields)
  in
  let global (g : Ir.global) =
    sp "{ Ir.gname = %S; gty = %s; registered = false }" g.gname (ty g.gty)
  in
  let func (f : Ir.func) =
    sp "{ Ir.fname = %S; params = %s; ret = %s; instrumented = %b;\nbody = %s }" f.fname
      (list (fun (x, t) -> sp "(%S, %s)" x (ty t)) f.params)
      (ty f.ret) f.instrumented (block f.body)
  in
  sp "{ Ir.tenv = List.fold_left Ctype.declare Ctype.empty_tenv %s;\nglobals = %s;\nfuncs = %s }"
    (list struct_def (Ctype.bindings p.tenv))
    (list global p.globals) (list ~sep:";\n" func p.funcs)

let () =
  print_string
    "(* Generated at build time by lib/workloads/embed from the workload\n\
    \   sources lib/workloads/*.minic; do not edit. *)\n\n\
     module Ir = Ifp_compiler.Ir\n\
     module Ctype = Ifp_types.Ctype\n";
  Array.iteri
    (fun i file ->
      if i > 0 then
        match Frontend.load file with
        | Error m ->
          prerr_endline m;
          exit 1
        | Ok (_, p) ->
          let name = Filename.(chop_extension (basename file)) in
          Printf.printf "\nlet %s =\n  lazy\n  %s\n"
            (String.map (function '-' -> '_' | c -> c) name)
            (program p))
    Sys.argv
