module Ctype = Ifp_types.Ctype
module L = Lexer

exception Parse_error of string * int

type st = {
  lx : L.t;
  mutable tenv : Ctype.tenv;
  mutable struct_names : string list;
  (* pre-scanned signatures: name -> (param types, return type, legacy) *)
  sigs : (string, Ctype.t list * Ctype.t) Hashtbl.t;
  globals : (string, Ctype.t) Hashtbl.t;
  (* current function scope: name -> (type, is_stack) *)
  scope : (string, Ctype.t * bool) Hashtbl.t;
}

let err st fmt =
  Format.kasprintf (fun m -> raise (Parse_error (m, L.line st.lx))) fmt

let expect_punct st p =
  match L.next st.lx with
  | L.PUNCT q when String.equal p q -> ()
  | tok -> err st "expected '%s', got %s" p (L.token_to_string tok)

let expect_kw st k =
  match L.next st.lx with
  | L.KW q when String.equal k q -> ()
  | tok -> err st "expected '%s', got %s" k (L.token_to_string tok)

let expect_ident st =
  match L.next st.lx with
  | L.IDENT s -> s
  | tok -> err st "expected identifier, got %s" (L.token_to_string tok)

let accept_punct st p =
  match L.peek st.lx with
  | L.PUNCT q when String.equal p q ->
    ignore (L.next st.lx);
    true
  | _ -> false

(* ---- types --------------------------------------------------------- *)

(* base type possibly followed by '*'s; array suffixes are parsed by the
   declaration sites (they bind to the name, C-style but postfix) *)
let parse_type st =
  let base =
    match L.next st.lx with
    | L.KW "i8" -> Ctype.I8
    | L.KW "i16" -> Ctype.I16
    | L.KW "i32" -> Ctype.I32
    | L.KW "i64" -> Ctype.I64
    | L.KW "f64" -> Ctype.F64
    | L.KW "void" -> Ctype.Void
    | L.KW "struct" -> Ctype.Struct (expect_ident st)
    | L.IDENT s when List.mem s st.struct_names -> Ctype.Struct s
    | tok -> err st "expected a type, got %s" (L.token_to_string tok)
  in
  let rec stars ty = if accept_punct st "*" then stars (Ctype.Ptr ty) else ty in
  stars base

let parse_array_suffix st ty =
  (* i64 x[4][2] parses as array of 4 arrays of 2 *)
  let rec dims acc =
    if accept_punct st "[" then begin
      match L.next st.lx with
      | L.INT n ->
        expect_punct st "]";
        dims (Int64.to_int n :: acc)
      | tok -> err st "expected array dimension, got %s" (L.token_to_string tok)
    end
    else acc
  in
  let ds = dims [] in
  List.fold_left (fun ty n -> Ctype.Array (ty, n)) ty ds

(* ---- typed expressions ---------------------------------------------- *)

(* a parsed expression is either a pure value or a place (memory
   location reached through a typed gep path) *)
type pexpr =
  | Val of Ir.expr * Ctype.t
  | Place of { base : Ir.expr; pointee : Ctype.t; steps : Ir.gstep list; ty : Ctype.t }

let addr_of_place = function
  | Place { base; steps = []; _ } -> base
  | Place { base; pointee; steps; ty = _ } -> Ir.Gep (pointee, base, steps)
  | Val _ -> invalid_arg "addr_of_place"

let rvalue st (p : pexpr) : Ir.expr * Ctype.t =
  match p with
  | Val (e, ty) -> (e, ty)
  | Place ({ ty; _ } as pl) -> (
    match ty with
    | ty when Ctype.is_scalar ty -> (Ir.Load (ty, addr_of_place p), ty)
    | Ctype.Array (elt, _) ->
      (* array-to-pointer decay: the address, typed elt* *)
      (addr_of_place (Place { pl with ty }), Ctype.Ptr elt)
    | Ctype.Struct _ -> err st "struct value used where a scalar is expected"
    | Ctype.Void -> err st "void value"
    | _ -> assert false)

and coerce_f64 (e, ty) = if Ctype.equal ty Ctype.F64 then e else Ir.Unop (Ir.I2F, e)

(* ---- expression grammar (precedence climbing) ---------------------- *)

let rec parse_expr st : pexpr = parse_or st

and parse_or st =
  let rec go acc =
    if accept_punct st "||" then
      let l, _ = rvalue st acc in
      let r, _ = rvalue st (parse_and st) in
      go (Val (Ir.Binop (Ir.LOr, l, r), Ctype.I64))
    else acc
  in
  go (parse_and st)

and parse_and st =
  let rec go acc =
    if accept_punct st "&&" then
      let l, _ = rvalue st acc in
      let r, _ = rvalue st (parse_bor st) in
      go (Val (Ir.Binop (Ir.LAnd, l, r), Ctype.I64))
    else acc
  in
  go (parse_bor st)

and binop_level st ~ops ~next acc0 =
  let rec go acc =
    match L.peek st.lx with
    | L.PUNCT p when List.mem_assoc p ops ->
      ignore (L.next st.lx);
      let mk = List.assoc p ops in
      let l = rvalue st acc in
      let r = rvalue st (next st) in
      let e, ty = mk st l r in
      go (Val (e, ty))
    | _ -> acc
  in
  go acc0

and arith name iop fop st (le, lt) (re, rt) =
  if Ctype.equal lt Ctype.F64 || Ctype.equal rt Ctype.F64 then
    match fop with
    | Some f -> (Ir.Binop (f, coerce_f64 (le, lt), coerce_f64 (re, rt)), Ctype.F64)
    | None -> err st "operator %s not defined on f64" name
  else (Ir.Binop (iop, le, re), Ctype.I64)

and cmp iop fop st (le, lt) (re, rt) =
  if Ctype.equal lt Ctype.F64 || Ctype.equal rt Ctype.F64 then
    match fop with
    | Some f -> (Ir.Binop (f, coerce_f64 (le, lt), coerce_f64 (re, rt)), Ctype.I64)
    | None ->
      (* a >= b  ==>  !(a < b); a > b ==> b < a handled at call sites *)
      err st "comparison not defined on f64"
  else (Ir.Binop (iop, le, re), Ctype.I64)

and parse_bor st =
  binop_level st
    ~ops:[ ("|", arith "|" Ir.BOr None) ]
    ~next:parse_bxor (parse_bxor st)

and parse_bxor st =
  binop_level st
    ~ops:[ ("^", arith "^" Ir.BXor None) ]
    ~next:parse_band (parse_band st)

and parse_band st =
  binop_level st
    ~ops:[ ("&", arith "&" Ir.BAnd None) ]
    ~next:parse_eq (parse_eq st)

and parse_eq st =
  binop_level st
    ~ops:[ ("==", cmp Ir.Eq (Some Ir.FEq)); ("!=", cmp Ir.Ne None) ]
    ~next:parse_rel (parse_rel st)

and parse_rel st =
  let gt st l r = cmp Ir.Lt (Some Ir.FLt) st r l in
  let ge st l r =
    (* a >= b  <=>  b <= a *)
    cmp Ir.Le (Some Ir.FLe) st r l
  in
  binop_level st
    ~ops:
      [ ("<", cmp Ir.Lt (Some Ir.FLt)); ("<=", cmp Ir.Le (Some Ir.FLe));
        (">", gt); (">=", ge) ]
    ~next:parse_shift (parse_shift st)

and parse_shift st =
  binop_level st
    ~ops:[ ("<<", arith "<<" Ir.Shl None); (">>", arith ">>" Ir.Shr None) ]
    ~next:parse_add (parse_add st)

and parse_add st =
  binop_level st
    ~ops:
      [ ("+", arith "+" Ir.Add (Some Ir.FAdd));
        ("-", arith "-" Ir.Sub (Some Ir.FSub)) ]
    ~next:parse_mul (parse_mul st)

and parse_mul st =
  binop_level st
    ~ops:
      [ ("*", arith "*" Ir.Mul (Some Ir.FMul));
        ("/", arith "/" Ir.Div (Some Ir.FDiv));
        ("%", arith "%" Ir.Rem None) ]
    ~next:parse_unary (parse_unary st)

and parse_unary st : pexpr =
  match L.peek st.lx with
  | L.PUNCT "-" ->
    ignore (L.next st.lx);
    let e, ty = rvalue st (parse_unary st) in
    if Ctype.equal ty Ctype.F64 then Val (Ir.Unop (Ir.FNeg, e), Ctype.F64)
    else Val (Ir.Unop (Ir.Neg, e), Ctype.I64)
  | L.PUNCT "!" ->
    ignore (L.next st.lx);
    let e, _ = rvalue st (parse_unary st) in
    Val (Ir.Unop (Ir.LNot, e), Ctype.I64)
  | L.PUNCT "~" ->
    ignore (L.next st.lx);
    let e, _ = rvalue st (parse_unary st) in
    Val (Ir.Unop (Ir.BNot, e), Ctype.I64)
  | L.PUNCT "*" ->
    ignore (L.next st.lx);
    let e, ty = rvalue st (parse_unary st) in
    (match ty with
    | Ctype.Ptr t -> Place { base = e; pointee = t; steps = []; ty = t }
    | _ -> err st "dereference of non-pointer")
  | L.PUNCT "&" ->
    ignore (L.next st.lx);
    (match parse_unary st with
    | Place ({ ty; _ } as pl) -> Val (addr_of_place (Place pl), Ctype.Ptr ty)
    | Val _ -> err st "address of non-lvalue")
  | L.KW "cast" ->
    ignore (L.next st.lx);
    expect_punct st "(";
    let ty = parse_type st in
    expect_punct st ",";
    let e, _ = rvalue st (parse_expr st) in
    expect_punct st ")";
    Val (Ir.Cast (ty, e), ty)
  | _ -> parse_postfix st (parse_primary st)

and parse_postfix st (p : pexpr) : pexpr =
  match L.peek st.lx with
  | L.PUNCT "[" -> (
    ignore (L.next st.lx);
    let idx, _ = rvalue st (parse_expr st) in
    expect_punct st "]";
    match p with
    | Place ({ ty = Ctype.Array (elt, _); _ } as pl) ->
      parse_postfix st
        (Place { pl with steps = pl.steps @ [ Ir.S_index idx ]; ty = elt })
    | _ -> (
      let e, ty = rvalue st p in
      match ty with
      | Ctype.Ptr t ->
        parse_postfix st
          (Place { base = e; pointee = t; steps = [ Ir.S_index idx ]; ty = t })
      | _ -> err st "indexing a non-pointer"))
  | L.PUNCT "->" -> (
    ignore (L.next st.lx);
    let f = expect_ident st in
    let e, ty = rvalue st p in
    match ty with
    | Ctype.Ptr (Ctype.Struct s) -> (
      match Ctype.field_offset st.tenv s f with
      | _, fty ->
        parse_postfix st
          (Place
             { base = e; pointee = Ctype.Struct s; steps = [ Ir.S_field f ];
               ty = fty })
      | exception Not_found -> err st "struct %s has no field %s" s f)
    | _ -> err st "-> on non-struct-pointer")
  | L.PUNCT "." -> (
    ignore (L.next st.lx);
    let f = expect_ident st in
    match p with
    | Place ({ ty = Ctype.Struct s; _ } as pl) -> (
      match Ctype.field_offset st.tenv s f with
      | _, fty ->
        parse_postfix st
          (Place { pl with steps = pl.steps @ [ Ir.S_field f ]; ty = fty })
      | exception Not_found -> err st "struct %s has no field %s" s f)
    | _ -> err st ". on non-struct place")
  | _ -> p

and parse_call st name =
  expect_punct st "(";
  let rec args acc =
    if accept_punct st ")" then List.rev acc
    else begin
      let e, _ = rvalue st (parse_expr st) in
      if accept_punct st "," then args (e :: acc)
      else begin
        expect_punct st ")";
        List.rev (e :: acc)
      end
    end
  in
  let actuals = args [] in
  let ret =
    match Hashtbl.find_opt st.sigs name with
    | Some (_, ret) -> ret
    | None -> (
      match Typecheck.builtin_sig name with
      | Some (_, ret) -> ret
      | None -> err st "call to unknown function %s" name)
  in
  Val (Ir.Call (name, actuals), ret)

and parse_primary st : pexpr =
  match L.next st.lx with
  | L.INT x -> Val (Ir.Int x, Ctype.I64)
  | L.FLOAT f -> Val (Ir.Float f, Ctype.F64)
  | L.PUNCT "(" ->
    let e = parse_expr st in
    expect_punct st ")";
    e
  | L.KW "malloc" ->
    expect_punct st "(";
    let ty = parse_type st in
    let count =
      if accept_punct st "," then fst (rvalue st (parse_expr st)) else Ir.Int 1L
    in
    expect_punct st ")";
    Val (Ir.Malloc (ty, count), Ctype.Ptr ty)
  | L.KW "malloc_bytes" ->
    expect_punct st "(";
    let e, _ = rvalue st (parse_expr st) in
    expect_punct st ")";
    Val (Ir.Malloc_bytes e, Ctype.Ptr Ctype.I8)
  | L.KW "null" ->
    expect_punct st "(";
    let ty = parse_type st in
    expect_punct st ")";
    Val (Ir.Cast (Ctype.Ptr ty, Ir.Int 0L), Ctype.Ptr ty)
  | L.KW "sizeof" ->
    expect_punct st "(";
    let ty = parse_type st in
    expect_punct st ")";
    Val (Ir.Int (Int64.of_int (Ctype.sizeof st.tenv ty)), Ctype.I64)
  | L.IDENT name -> (
    if L.peek st.lx = L.PUNCT "(" then parse_call st name
    else
      match Hashtbl.find_opt st.scope name with
      | Some (ty, false) -> Val (Ir.Var name, ty)
      | Some (ty, true) ->
        Place { base = Ir.Addr_local name; pointee = ty; steps = []; ty }
      | None -> (
        match Hashtbl.find_opt st.globals name with
        | Some ty when Ctype.is_scalar ty -> Val (Ir.Load_global name, ty)
        | Some ty ->
          Place { base = Ir.Addr_global name; pointee = ty; steps = []; ty }
        | None -> err st "unknown identifier %s" name))
  | tok -> err st "unexpected %s in expression" (L.token_to_string tok)

(* ---- statements ------------------------------------------------------ *)

let store_to st (lhs : pexpr) (rhs : Ir.expr) (rty : Ctype.t) : Ir.stmt =
  match lhs with
  | Val (Ir.Var name, ty) ->
    ignore ty;
    ignore rty;
    Ir.Assign (name, rhs)
  | Val (Ir.Load_global g, gty) ->
    let rhs = if Ctype.equal gty Ctype.F64 then coerce_f64 (rhs, rty) else rhs in
    Ir.Store_global (g, rhs)
  | Place { ty; _ } when Ctype.is_scalar ty ->
    let rhs = if Ctype.equal ty Ctype.F64 then coerce_f64 (rhs, rty) else rhs in
    Ir.Store (ty, addr_of_place lhs, rhs)
  | Place _ -> err st "assignment to aggregate lvalue"
  | Val _ -> err st "assignment to non-lvalue"

let rec parse_stmt st : Ir.stmt =
  match L.peek st.lx with
  | L.KW "var" ->
    ignore (L.next st.lx);
    let name = expect_ident st in
    expect_punct st ":";
    let ty = parse_type st in
    let ty = parse_array_suffix st ty in
    expect_punct st ";";
    Hashtbl.replace st.scope name (ty, true);
    Ir.Decl_local (name, ty)
  | L.KW "let" ->
    ignore (L.next st.lx);
    let name = expect_ident st in
    expect_punct st ":";
    let ty = parse_type st in
    (match L.next st.lx with
    | L.PUNCT "=" -> ()
    | tok -> err st "expected '=', got %s" (L.token_to_string tok));
    let e, ety = rvalue st (parse_expr st) in
    expect_punct st ";";
    Hashtbl.replace st.scope name (ty, false);
    let e = if Ctype.equal ty Ctype.F64 then coerce_f64 (e, ety) else e in
    Ir.Let (name, ty, e)
  | L.KW "if" ->
    ignore (L.next st.lx);
    expect_punct st "(";
    let c, _ = rvalue st (parse_expr st) in
    expect_punct st ")";
    let t = parse_block st in
    let e =
      match L.peek st.lx with
      | L.KW "else" ->
        ignore (L.next st.lx);
        parse_block st
      | _ -> []
    in
    Ir.If (c, t, e)
  | L.KW "while" ->
    ignore (L.next st.lx);
    expect_punct st "(";
    let c, _ = rvalue st (parse_expr st) in
    expect_punct st ")";
    Ir.While (c, parse_block st)
  | L.KW "return" ->
    ignore (L.next st.lx);
    if accept_punct st ";" then Ir.Return None
    else begin
      let e, _ = rvalue st (parse_expr st) in
      expect_punct st ";";
      Ir.Return (Some e)
    end
  | L.KW "break" ->
    ignore (L.next st.lx);
    expect_punct st ";";
    Ir.Break
  | L.KW "continue" ->
    ignore (L.next st.lx);
    expect_punct st ";";
    Ir.Continue
  | L.KW "free" ->
    ignore (L.next st.lx);
    expect_punct st "(";
    let e, _ = rvalue st (parse_expr st) in
    expect_punct st ")";
    expect_punct st ";";
    Ir.Free e
  | _ ->
    let lhs = parse_expr st in
    if accept_punct st "=" then begin
      let rhs, rty = rvalue st (parse_expr st) in
      expect_punct st ";";
      store_to st lhs rhs rty
    end
    else begin
      expect_punct st ";";
      match lhs with
      | Val (e, _) -> Ir.Expr e
      | Place _ -> Ir.Expr (fst (rvalue st lhs))
    end

and parse_block st : Ir.stmt list =
  expect_punct st "{";
  let rec go acc =
    if accept_punct st "}" then List.rev acc else go (parse_stmt st :: acc)
  in
  go []

(* ---- declarations ---------------------------------------------------- *)

(* does [ty] hold a [target] by value, directly or through the by-value
   fields of declared structs? Pointers break the chain; structs not yet
   declared are forward references and close no cycle until they are.
   Terminates because the declared structs never form a cycle. *)
let rec contains_by_value tenv ~target = function
  | Ctype.Struct n -> (
    String.equal n target
    ||
    match Ctype.lookup tenv n with
    | def ->
      List.exists
        (fun f -> contains_by_value tenv ~target f.Ctype.fty)
        def.Ctype.fields
    | exception Not_found -> false)
  | Ctype.Array (elt, _) -> contains_by_value tenv ~target elt
  | Ctype.Void | I8 | I16 | I32 | I64 | F64 | Ptr _ -> false

let parse_struct_decl st =
  expect_kw st "struct";
  let name = expect_ident st in
  let line = L.line st.lx in
  let fail fmt =
    Format.kasprintf (fun m -> raise (Parse_error (m, line))) fmt
  in
  (match Ctype.lookup st.tenv name with
  | _ -> fail "duplicate struct %s" name
  | exception Not_found -> ());
  st.struct_names <- name :: st.struct_names;
  expect_punct st "{";
  let rec fields acc =
    if accept_punct st "}" then List.rev acc
    else begin
      let fty = parse_type st in
      let fname = expect_ident st in
      let fty = parse_array_suffix st fty in
      expect_punct st ";";
      fields ({ Ctype.fname; fty } :: acc)
    end
  in
  let fs = fields [] in
  expect_punct st ";";
  (* every by-value cycle is closed by the declaration of its last
     member, so checking each new struct against the declared ones
     catches them all *)
  if
    List.exists
      (fun f -> contains_by_value st.tenv ~target:name f.Ctype.fty)
      fs
  then fail "struct %s contains itself by value" name;
  st.tenv <- Ctype.declare st.tenv { Ctype.sname = name; fields = fs }

let parse_params st =
  expect_punct st "(";
  if accept_punct st ")" then []
  else
    let rec go acc =
      let ty = parse_type st in
      let name = expect_ident st in
      if accept_punct st "," then go ((name, ty) :: acc)
      else begin
        expect_punct st ")";
        List.rev ((name, ty) :: acc)
      end
    in
    go []

let parse_func st ~instrumented =
  let ret = parse_type st in
  let name = expect_ident st in
  let params = parse_params st in
  Hashtbl.reset st.scope;
  List.iter (fun (p, ty) -> Hashtbl.replace st.scope p (ty, false)) params;
  let body = parse_block st in
  Ir.func ~instrumented name params ret body

(* pre-scan: collect struct names (so types parse), then function
   signatures and globals, skipping bodies *)
let prescan src =
  let lx = L.create src in
  let struct_names = ref [] in
  let rec skip_braces depth =
    match L.next lx with
    | L.PUNCT "{" -> skip_braces (depth + 1)
    | L.PUNCT "}" -> if depth > 1 then skip_braces (depth - 1)
    | L.EOF -> raise (Parse_error ("unexpected eof in body", L.line lx))
    | _ -> skip_braces depth
  in
  let rec go () =
    match L.peek lx with
    | L.EOF -> ()
    | L.KW "struct" ->
      ignore (L.next lx);
      (match L.next lx with
      | L.IDENT s -> struct_names := s :: !struct_names
      | tok ->
        raise
          (Parse_error ("expected struct name, got " ^ L.token_to_string tok,
                        L.line lx)));
      (match L.next lx with
      | L.PUNCT "{" -> skip_braces 1
      | _ -> ());
      (* trailing ';' and field tokens are skipped by skip_braces *)
      (match L.peek lx with
      | L.PUNCT ";" -> ignore (L.next lx)
      | _ -> ());
      go ()
    | _ ->
      ignore (L.next lx);
      (match L.peek lx with
      | L.PUNCT "{" ->
        ignore (L.next lx);
        skip_braces 1
      | _ -> ());
      go ()
  in
  go ();
  !struct_names

let parse src =
  let struct_names = prescan src in
  let st =
    {
      lx = L.create src;
      tenv = Ctype.empty_tenv;
      struct_names;
      sigs = Hashtbl.create 16;
      globals = Hashtbl.create 16;
      scope = Hashtbl.create 16;
    }
  in
  (* pass 1: declarations and signatures (bodies skipped) *)
  let lx_save = st.lx in
  let rec sig_pass () =
    match L.peek st.lx with
    | L.EOF -> ()
    | L.KW "struct" ->
      (* full struct parse builds the tenv in order; at top level the
         'struct' keyword always begins a declaration (functions refer to
         struct types by bare name) *)
      parse_struct_decl st;
      sig_pass ()
    | L.KW "global" ->
      ignore (L.next st.lx);
      let ty = parse_type st in
      let name = expect_ident st in
      let ty = parse_array_suffix st ty in
      expect_punct st ";";
      Hashtbl.replace st.globals name ty;
      sig_pass ()
    | _ ->
      let _legacy =
        match L.peek st.lx with
        | L.KW "legacy" ->
          ignore (L.next st.lx);
          true
        | _ -> false
      in
      let ret = parse_type st in
      let name = expect_ident st in
      let params = parse_params st in
      Hashtbl.replace st.sigs name (List.map snd params, ret);
      (* skip the body *)
      expect_punct st "{";
      let rec skip depth =
        match L.next st.lx with
        | L.PUNCT "{" -> skip (depth + 1)
        | L.PUNCT "}" -> if depth > 1 then skip (depth - 1)
        | L.EOF -> err st "unexpected eof in function body"
        | _ -> skip depth
      in
      skip 1;
      sig_pass ()
  in
  sig_pass ();
  ignore lx_save;
  (* pass 2: full parse with all signatures known *)
  let st = { st with lx = L.create src } in
  let funcs = ref [] in
  let globals = ref [] in
  let rec go () =
    match L.peek st.lx with
    | L.EOF -> ()
    | L.KW "struct" ->
      (* already declared in pass 1: skip the declaration *)
      let rec skip_decl () =
        match L.next st.lx with
        | L.PUNCT "}" ->
          (match L.peek st.lx with
          | L.PUNCT ";" -> ignore (L.next st.lx)
          | _ -> ())
        | L.EOF -> err st "unexpected eof in struct"
        | _ -> skip_decl ()
      in
      skip_decl ();
      go ()
    | L.KW "global" ->
      ignore (L.next st.lx);
      let ty = parse_type st in
      let name = expect_ident st in
      let ty = parse_array_suffix st ty in
      expect_punct st ";";
      globals := Ir.global name ty :: !globals;
      go ()
    | L.KW "legacy" ->
      ignore (L.next st.lx);
      funcs := parse_func st ~instrumented:false :: !funcs;
      go ()
    | _ ->
      funcs := parse_func st ~instrumented:true :: !funcs;
      go ()
  in
  go ();
  Ir.program ~tenv:st.tenv ~globals:(List.rev !globals) (List.rev !funcs)
