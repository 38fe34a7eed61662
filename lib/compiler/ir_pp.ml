module Ctype = Ifp_types.Ctype

(* Surface-syntax printer.

   [program_to_string p] emits text in the same language {!Parser}
   reads, so printed programs round-trip: for any program in the
   parser's image (what [Parser.parse] can produce — this includes
   everything the fuzz generator emits), re-lexing and re-parsing the
   output yields a program that is [Ir.equal_program] to the input.
   The printer is also injective on well-typed programs (distinct
   programs print distinctly), which {!Ifp_campaign.Job} relies on for
   content-addressed result caching.

   Constructs outside the surface language — the [Ifp_*] forms the
   instrumentation pass inserts, [Malloc_sized], explicit [I2F]/[F2I]
   nodes in non-coercion positions, negative/special float literals —
   print in distinctive call-like spellings ([IFP_Promote(e)],
   [malloc_sized(t, n)], [i2f(e)], [f64_bits(0x…)]) that still lex but
   do not re-parse; they appear only in debug dumps of instrumented or
   DSL-built programs, never in generated/minimized repro text.

   Mapping notes, mirroring the parser exactly:
   - [a > b] parses as [Lt (b, a)], so [Gt]/[Ge] are not in the parser
     image; they still print as [a > b]/[a >= b] (DSL programs use
     them), which re-parses to the swapped-[Lt]/[Le] form.
   - the parser inserts [Unop (I2F, e)] only at f64 coercion points
     (float binop operands, f64 [let]/store right-hand sides); the
     printer strips exactly those wrappers and re-parsing reinserts
     them.
   - negative integer literals do not exist ([-1] parses as
     [Unop (Neg, Int 1)]); negative [Int] constants print as 16-digit
     hex, which [Int64.of_string] wraps back to the same value.
   - struct declarations print sorted by name (the type environment is
     a map; [Ir.equal_program] compares sorted bindings). *)

(* precedence levels, lowest-binding first, mirroring the parser's
   climbing order *)
let lv_expr = 0
let lv_unary = 11
let lv_postfix = 12
let lv_primary = 13

let binop_level : Ir.binop -> int = function
  | LOr -> 1
  | LAnd -> 2
  | BOr -> 3
  | BXor -> 4
  | BAnd -> 5
  | Eq | Ne | FEq -> 6
  | Lt | Le | Gt | Ge | FLt | FLe -> 7
  | Shl | Shr -> 8
  | Add | Sub | FAdd | FSub -> 9
  | Mul | Div | Rem | FMul | FDiv -> 10

let binop_token : Ir.binop -> string = function
  | Add | FAdd -> "+"
  | Sub | FSub -> "-"
  | Mul | FMul -> "*"
  | Div | FDiv -> "/"
  | Rem -> "%"
  | BAnd -> "&"
  | BOr -> "|"
  | BXor -> "^"
  | Shl -> "<<"
  | Shr -> ">>"
  | LAnd -> "&&"
  | LOr -> "||"
  | Eq | FEq -> "=="
  | Ne -> "!="
  | Lt | FLt -> "<"
  | Le | FLe -> "<="
  | Gt -> ">"
  | Ge -> ">="

let is_float_op : Ir.binop -> bool = function
  | FAdd | FSub | FMul | FDiv | FEq | FLt | FLe -> true
  | _ -> false

(* the parser wraps non-f64 operands of float operations (and f64
   let/store right-hand sides) in [I2F]; strip one wrapper so the
   re-parse reinserts it *)
let strip_i2f : Ir.expr -> Ir.expr = function
  | Ir.Unop (Ir.I2F, e) -> e
  | e -> e

let int_lit (x : int64) =
  if Int64.compare x 0L >= 0 then Int64.to_string x
  else Printf.sprintf "0x%Lx" x

let float_fallback f = Printf.sprintf "f64_bits(0x%Lx)" (Int64.bits_of_float f)

(* a float literal the lexer reads back to the same bits: digits, one
   dot, digits. Negative, non-finite and negative-zero values have no
   literal form and use the non-parseable fallback. An integral value is
   its exact digits and ".0", the text the general search below ends at
   for it after 17 failed [%g] widths. *)
let float_lit f =
  if
    f <> f (* nan *)
    || f = infinity || f = neg_infinity
    || f < 0.0
    || (f = 0.0 && not (Int64.equal (Int64.bits_of_float f) 0L))
  then float_fallback f
  else if Float.is_integer f then Printf.sprintf "%.1f" f
  else begin
    let exact s =
      match float_of_string_opt s with
      | Some g -> Int64.equal (Int64.bits_of_float g) (Int64.bits_of_float f)
      | None -> false
    in
    let wellformed s =
      String.length s > 0
      && s.[0] >= '0'
      && s.[0] <= '9'
      && String.for_all (fun c -> (c >= '0' && c <= '9') || c = '.') s
      && String.fold_left (fun n c -> if c = '.' then n + 1 else n) 0 s = 1
    in
    let rec shortest p =
      if p > 17 then None
      else
        let s = Printf.sprintf "%.*g" p f in
        if wellformed s && exact s then Some s else shortest (p + 1)
    in
    match shortest 1 with
    | Some s -> s
    | None ->
      (* every finite double has a finite exact decimal expansion *)
      let s = Printf.sprintf "%.1074f" f in
      let last = ref (String.length s - 1) in
      while !last > 0 && s.[!last] = '0' do
        decr last
      done;
      let last = if s.[!last] = '.' then !last + 1 else !last in
      let s = String.sub s 0 (last + 1) in
      if wellformed s && exact s then s else float_fallback f
  end

(* declaration sites take array extents as a name suffix:
   [Array (Array (t, 2), 4)] is [t x[4][2]] *)
let decl_ty ty =
  let rec peel acc = function
    | Ctype.Array (t, n) -> peel (n :: acc) t
    | t -> (t, List.rev acc)
  in
  peel [] ty

let dims_str dims = String.concat "" (List.map (Printf.sprintf "[%d]") dims)

(* a type in a [parse_type] position: base name (structs by bare name —
   the parser pre-scans declarations, so forward references work), then
   ['*']s, each after the extents of the array it points to, in the
   declaration's order: [Ptr (Array (Array (I64, 2), 4))] is
   [i64[4][2]*]. An array type with no ['*'] after it re-parses only
   as a [var] type. *)
let rec ty_str : Ctype.t -> string = function
  | Ctype.Void -> "void"
  | Ctype.I8 -> "i8"
  | Ctype.I16 -> "i16"
  | Ctype.I32 -> "i32"
  | Ctype.I64 -> "i64"
  | Ctype.F64 -> "f64"
  | Ctype.Struct s -> s
  | Ctype.Ptr t -> ty_str t ^ "*"
  | Ctype.Array _ as t ->
    let core, dims = decl_ty t in
    ty_str core ^ dims_str dims

(* the level at which an expression's printed form binds; [pe]
   parenthesizes when the context requires tighter. Must stay in sync
   with [pe0]'s choice of form. *)
let print_level (e : Ir.expr) =
  match e with
  | Int _ | Float _ | Var _ | Load_global _ | Call _ | Malloc _
  | Malloc_bytes _ | Malloc_sized _ | Ifp_promote _ ->
    lv_primary
  | Cast (Ctype.Ptr (Ctype.Array _), _) -> lv_unary (* null(t[n]) does not parse *)
  | Cast (Ctype.Ptr _, Int 0L) -> lv_primary (* null(t) *)
  | Cast _ -> lv_unary (* cast(…) cannot take postfix steps *)
  | Unop ((I2F | F2I), _) -> lv_primary (* call-form fallbacks *)
  | Unop _ -> lv_unary
  | Load (_, Gep (_, _, _ :: _)) -> lv_postfix (* place form *)
  | Load (_, Addr_local _) -> lv_primary (* bare stack-var name *)
  | Load _ -> lv_unary (* *e *)
  | Addr_local _ | Addr_global _ | Gep _ -> lv_unary (* &… *)
  | Binop (op, _, _) -> binop_level op

let rec pe buf req (e : Ir.expr) =
  if print_level e < req then begin
    Buffer.add_char buf '(';
    pe0 buf e;
    Buffer.add_char buf ')'
  end
  else pe0 buf e

and pe0 buf (e : Ir.expr) =
  let add = Buffer.add_string buf in
  match e with
  | Int x -> add (int_lit x)
  | Float f -> add (float_lit f)
  | Var x -> add x
  | Load_global g -> add g
  | Binop (op, a, b) ->
    let a, b = if is_float_op op then (strip_i2f a, strip_i2f b) else (a, b) in
    let l = binop_level op in
    (* left-associative: the right operand needs one level tighter *)
    pe buf l a;
    add (" " ^ binop_token op ^ " ");
    pe buf (l + 1) b
  | Unop (I2F, a) -> call_form buf "i2f" [ a ]
  | Unop (F2I, a) -> call_form buf "f2i" [ a ]
  | Unop ((Neg | FNeg), a) ->
    add "-";
    pe buf lv_unary a
  | Unop (LNot, a) ->
    add "!";
    pe buf lv_unary a
  | Unop (BNot, a) ->
    add "~";
    pe buf lv_unary a
  | Load (_, Gep (pointee, b, (_ :: _ as steps))) -> place buf pointee b steps
  | Load (_, Addr_local x) -> add x (* scalar stack-var read *)
  | Load (_, Addr_global g) -> add ("*(&" ^ g ^ ")") (* debug only *)
  | Load (_, a) ->
    add "*";
    pe buf lv_unary a
  | Addr_local x -> add ("&" ^ x)
  | Addr_global g -> add ("&" ^ g)
  | Gep (_, b, []) ->
    (* degenerate path (DSL only): [&*b] re-parses to just [b] *)
    add "&*";
    pe buf lv_unary b
  | Gep (pointee, b, steps) ->
    add "&";
    place buf pointee b steps
  | Call (f, args) -> call_form buf f args
  | Malloc (ty, n) ->
    add ("malloc(" ^ ty_str ty ^ ", ");
    pe buf lv_expr n;
    add ")"
  | Malloc_bytes n ->
    add "malloc_bytes(";
    pe buf lv_expr n;
    add ")"
  | Malloc_sized (ty, n) ->
    (* no surface form (wrapper-inference output); debug spelling *)
    add ("malloc_sized(" ^ ty_str ty ^ ", ");
    pe buf lv_expr n;
    add ")"
  | Cast (Ctype.Ptr t, Int 0L) when print_level e = lv_primary ->
    add ("null(" ^ ty_str t ^ ")")
  | Cast (ty, a) ->
    add ("cast(" ^ ty_str ty ^ ", ");
    pe buf lv_expr a;
    add ")"
  | Ifp_promote a -> call_form buf "IFP_Promote" [ a ]

and call_form buf f args =
  Buffer.add_string buf (f ^ "(");
  List.iteri
    (fun i a ->
      if i > 0 then Buffer.add_string buf ", ";
      pe buf lv_expr a)
    args;
  Buffer.add_string buf ")"

(* A memory place [base] + gep steps, printed in postfix syntax. The
   first step off a pointer-valued root uses [->f] / pointer-arithmetic
   [\[i\]]; steps off an aggregate root ([&x]-style locals/globals) and
   all later steps use [.f] / [\[i\]]. A pointer to an array is
   dereferenced first, ["(*p)[i]"]: its leading index selects an element,
   which [p[i]] would read as arithmetic over whole arrays. *)
and place buf pointee (base : Ir.expr) steps =
  (* the root, and whether its first step is off a pointer *)
  let ptr_root =
    match (base, pointee) with
    | (Ir.Addr_local x | Ir.Addr_global x), _ ->
      Buffer.add_string buf x;
      false
    | _, Ctype.Array _ ->
      Buffer.add_string buf "(*";
      pe buf lv_unary base;
      Buffer.add_char buf ')';
      false
    | Ir.Var x, _ ->
      Buffer.add_string buf x;
      true
    | b, _ ->
      pe buf lv_postfix b;
      true
  in
  List.iteri
    (fun i (s : Ir.gstep) ->
      match s with
      | S_field f ->
        Buffer.add_string buf ((if i = 0 && ptr_root then "->" else ".") ^ f)
      | S_index ie ->
        Buffer.add_string buf "[";
        pe buf lv_expr ie;
        Buffer.add_string buf "]")
    steps

(* ---- statements ------------------------------------------------------ *)

let rec ps buf ind gmap (s : Ir.stmt) =
  let add = Buffer.add_string buf in
  let pad () = add (String.make (2 * ind) ' ') in
  let strip ty e = if Ctype.equal ty Ctype.F64 then strip_i2f e else e in
  pad ();
  match s with
  | Ir.Let (x, ty, e) ->
    add ("let " ^ x ^ ": " ^ ty_str ty ^ " = ");
    pe buf lv_expr (strip ty e);
    add ";\n"
  | Ir.Assign (x, e) ->
    (* note: the parser inserts no f64 coercion on [Assign] *)
    add (x ^ " = ");
    pe buf lv_expr e;
    add ";\n"
  | Ir.Decl_local (x, ty) -> add ("var " ^ x ^ ": " ^ ty_str ty ^ ";\n")
  | Ir.Store (ty, addr, v) ->
    (match addr with
    | Ir.Gep (pointee, b, (_ :: _ as steps)) -> place buf pointee b steps
    | Ir.Addr_local x -> add x
    | Ir.Addr_global g -> add ("*(&" ^ g ^ ")") (* debug only *)
    | a ->
      add "*";
      pe buf lv_unary a);
    add " = ";
    pe buf lv_expr (strip ty v);
    add ";\n"
  | Ir.Store_global (g, e) ->
    let e =
      match List.assoc_opt g gmap with Some ty -> strip ty e | None -> e
    in
    add (g ^ " = ");
    pe buf lv_expr e;
    add ";\n"
  | Ir.If (c, t, els) ->
    add "if (";
    pe buf lv_expr c;
    add ") {\n";
    List.iter (ps buf (ind + 1) gmap) t;
    pad ();
    (match els with
    | [] -> add "}\n"
    | _ ->
      add "} else {\n";
      List.iter (ps buf (ind + 1) gmap) els;
      pad ();
      add "}\n")
  | Ir.While (c, b) ->
    add "while (";
    pe buf lv_expr c;
    add ") {\n";
    List.iter (ps buf (ind + 1) gmap) b;
    pad ();
    add "}\n"
  | Ir.Return None -> add "return;\n"
  | Ir.Return (Some e) ->
    add "return ";
    pe buf lv_expr e;
    add ";\n"
  | Ir.Expr e ->
    pe buf lv_expr e;
    add ";\n"
  | Ir.Free e ->
    add "free(";
    pe buf lv_expr e;
    add ");\n"
  | Ir.Break -> add "break;\n"
  | Ir.Continue -> add "continue;\n"
  | Ir.Ifp_register_local x -> add ("IFP_Register(" ^ x ^ ");\n")
  | Ir.Ifp_deregister_local x -> add ("IFP_Deregister(" ^ x ^ ");\n")

(* ---- declarations ---------------------------------------------------- *)

let print_struct buf (d : Ctype.struct_def) =
  Buffer.add_string buf ("struct " ^ d.sname ^ " {\n");
  List.iter
    (fun (f : Ctype.field) ->
      let core, dims = decl_ty f.fty in
      Buffer.add_string buf
        ("  " ^ ty_str core ^ " " ^ f.fname ^ dims_str dims ^ ";\n"))
    d.fields;
  Buffer.add_string buf "};\n"

let print_global buf (g : Ir.global) =
  let core, dims = decl_ty g.gty in
  Buffer.add_string buf
    ("global " ^ ty_str core ^ " " ^ g.gname ^ dims_str dims ^ ";\n")

let print_func buf gmap (f : Ir.func) =
  let params =
    String.concat ", "
      (List.map (fun (name, ty) -> ty_str ty ^ " " ^ name) f.Ir.params)
  in
  Buffer.add_string buf
    ((if f.instrumented then "" else "legacy ")
    ^ ty_str f.ret ^ " " ^ f.fname ^ "(" ^ params ^ ") {\n");
  List.iter (ps buf 1 gmap) f.body;
  Buffer.add_string buf "}\n"

let print_program buf (p : Ir.program) =
  let gmap = List.map (fun (g : Ir.global) -> (g.gname, g.gty)) p.globals in
  List.iter
    (fun (_, d) -> print_struct buf d)
    (Ctype.bindings p.tenv);
  List.iter (print_global buf) p.globals;
  List.iteri
    (fun i f ->
      if i > 0 || p.globals <> [] || Ctype.bindings p.tenv <> [] then
        Buffer.add_char buf '\n';
      print_func buf gmap f)
    p.funcs

let program_to_string p =
  let buf = Buffer.create 1024 in
  print_program buf p;
  Buffer.contents buf
