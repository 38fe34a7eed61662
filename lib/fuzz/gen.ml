(* Seeded MiniC generator: typed construction of surface text.

   The generator keeps a symbol table of everything it has brought into
   scope — integer registers, float registers, indexable array lvalue
   paths with their (power-of-two) extents, derived i64* pointers with
   their safe remaining extents, non-null linked-list node pointers —
   and only composes phrases whose types it knows. Safety discipline:

   - every dynamic index is masked with [& (extent-1)] against the
     lvalue's tracked extent (extents are powers of two);
   - a derived pointer [&base[c]] records remaining extent [extent - c],
     with [c] chosen so the remainder is again a power of two (IFP
     narrowing keeps the innermost array subobject, so indices
     [0 .. extent-1-c] stay in bounds — verified empirically against
     the subheap configuration);
   - divisions/remainders are guarded ([(e & 7) + 1]), shifts masked;
   - every loop is a fresh bounded counter; [continue] only appears in
     increment-first loops, [break] anywhere;
   - float expressions are float-typed at every node (the parser
     coerces int operands with I2F exactly where we allow them);
   - no pointer-to-int casts, no frees of tracked pointers (only a
     self-contained alloc/use/free composite). *)

module Prng = Ifp_util.Prng

type knobs = {
  stmts : int;
  expr_depth : int;
  block_depth : int;
  extra_structs : int;
  extra_fields : int;
  floats : bool;
  list_len : int;
  temporal : bool;
}

let default =
  {
    stmts = 16;
    expr_depth = 3;
    block_depth = 2;
    extra_structs = 2;
    extra_fields = 2;
    floats = true;
    list_len = 3;
    temporal = false;
  }

let quick =
  {
    stmts = 8;
    expr_depth = 2;
    block_depth = 1;
    extra_structs = 1;
    extra_fields = 1;
    floats = false;
    list_len = 2;
    temporal = false;
  }

(* weight (0..100) of pointer-derivation and allocation statements *)
let ptr_density = 40

exception Gen_bug of string

(* an indexable int-array lvalue: [path][i] loads/stores i64 for
   i in [0, ext), ext a power of two *)
type arr = { path : string; ext : int }

(* a struct type's shape, as far as the generator uses it *)
type smeta = {
  sname : string;
  arr_ext : int option;  (** extent of the [arr] field, if present *)
  narrows : (string * string) list;  (** (field, width) narrow scalars *)
  has_w : bool;  (** f64 field [w] *)
  has_inner : bool;  (** [inner : S0] by-value field *)
}

type st = {
  rng : Prng.t;
  k : knobs;
  b : Buffer.t;
  mutable ind : int;
  mutable fresh : int;
  mutable ints : string list;  (** i64 register variables *)
  mutable fvars : string list;  (** f64 register variables *)
  mutable arrays : arr list;
  mutable iptrs : (string * int) list;  (** i64* vars, safe extent *)
  mutable nodes : string list;  (** non-null S0* variables *)
  mutable iplaces : string list;  (** scalar int lvalue paths *)
  mutable fplaces : string list;  (** f64 lvalue paths *)
}

let pct st p = Prng.int st.rng 100 < p
let pick st l = List.nth l (Prng.int st.rng (List.length l))

(* names declared inside a nested block go out of scope with it; the
   symbol table must forget them or a later statement could reference a
   dead (or never-initialized) variable *)
let snapshot st =
  (st.ints, st.fvars, st.arrays, st.iptrs, st.nodes, st.iplaces, st.fplaces)

let restore st (a, b, c, d, e, f, g) =
  st.ints <- a;
  st.fvars <- b;
  st.arrays <- c;
  st.iptrs <- d;
  st.nodes <- e;
  st.iplaces <- f;
  st.fplaces <- g

(* "i8", "f64", ... are type keywords; never hand them out as names *)
let reserved = [ "i8"; "i16"; "i32"; "i64"; "f32"; "f64" ]

let rec fresh st pfx =
  st.fresh <- st.fresh + 1;
  let name = Printf.sprintf "%s%d" pfx st.fresh in
  if List.mem name reserved then fresh st pfx else name

let line st fmt =
  Printf.ksprintf
    (fun s ->
      Buffer.add_string st.b (String.make (2 * st.ind) ' ');
      Buffer.add_string st.b s;
      Buffer.add_char st.b '\n')
    fmt

let blank st = Buffer.add_char st.b '\n'

(* power-of-two extents keep index masking exact *)
let pow2_ext st = pick st [ 4; 4; 8; 8; 16 ]

(* ---- expressions ----------------------------------------------------- *)

(* an index expression guaranteed in [0, ext) *)
let rec index_expr st ext =
  if pct st 35 then
    string_of_int (pick st [ 0; 0; ext - 1; ext / 2 ])
  else if pct st 50 then string_of_int (Prng.int st.rng ext)
  else Printf.sprintf "(%s & %d)" (int_expr st 1) (ext - 1)

and int_leaf st =
  let lits () =
    if pct st 15 then Printf.sprintf "-%d" (1 + Prng.int st.rng 8)
    else string_of_int (Prng.int st.rng 17)
  in
  let choices =
    [ (fun () -> lits ()); (fun () -> pick st st.ints); (fun () -> "g0") ]
    @ (if st.iplaces <> [] then [ (fun () -> pick st st.iplaces) ] else [])
    @ (if st.arrays <> [] then
         [
           (fun () ->
             let a = pick st st.arrays in
             Printf.sprintf "%s[%s]" a.path (index_expr st a.ext));
         ]
       else [])
    @
    if st.iptrs <> [] then
      [
        (fun () ->
          let p, ext = pick st st.iptrs in
          Printf.sprintf "%s[%s]" p (index_expr st ext));
      ]
    else []
  in
  (pick st choices) ()

and int_expr st d =
  if d <= 0 then int_leaf st
  else
    match Prng.int st.rng 12 with
    | 0 | 1 | 2 ->
      Printf.sprintf "(%s %s %s)"
        (int_expr st (d - 1))
        (pick st [ "+"; "+"; "-"; "*" ])
        (int_expr st (d - 1))
    | 3 ->
      Printf.sprintf "(%s %s %s)"
        (int_expr st (d - 1))
        (pick st [ "&"; "|"; "^" ])
        (int_expr st (d - 1))
    | 4 ->
      Printf.sprintf "(%s %s (%s & 7))"
        (int_expr st (d - 1))
        (pick st [ "<<"; ">>" ])
        (int_expr st (d - 1))
    | 5 ->
      Printf.sprintf "(%s %s ((%s & 7) + 1))"
        (int_expr st (d - 1))
        (pick st [ "/"; "%" ])
        (int_expr st (d - 1))
    | 6 ->
      Printf.sprintf "(%s %s %s)"
        (int_expr st (d - 1))
        (pick st [ "<"; "<="; "=="; "!="; ">"; ">=" ])
        (int_expr st (d - 1))
    | 7 ->
      Printf.sprintf "hmix(%s, %s)" (int_expr st (d - 1)) (int_expr st (d - 1))
    | 8 -> Printf.sprintf "(~%s)" (int_leaf st)
    | 9 -> Printf.sprintf "(!%s)" (int_leaf st)
    | _ -> int_leaf st

and float_leaf st =
  let lit () = pick st [ "0.5"; "1.5"; "2.0"; "0.25"; "3.5"; "1.0"; "0.125" ] in
  let choices =
    [ (fun () -> lit ()) ]
    @ (if st.fvars <> [] then [ (fun () -> pick st st.fvars) ] else [])
    @ if st.fplaces <> [] then [ (fun () -> pick st st.fplaces) ] else []
  in
  (pick st choices) ()

and float_expr st d =
  if d <= 0 then float_leaf st
  else
    match Prng.int st.rng 6 with
    | 0 | 1 ->
      Printf.sprintf "(%s %s %s)"
        (float_expr st (d - 1))
        (pick st [ "+"; "-"; "*" ])
        (float_expr st (d - 1))
    (* int operand on the right: the parser coerces it with I2F *)
    | 2 -> Printf.sprintf "(%s + %s)" (float_expr st (d - 1)) (int_expr st 1)
    | 3 -> Printf.sprintf "(%s / 2.0)" (float_expr st (d - 1))
    | _ -> float_leaf st

and cond st =
  match Prng.int st.rng 6 with
  | 0 | 1 ->
    Printf.sprintf "(%s %s %s)" (int_expr st 1)
      (pick st [ "<"; "<="; "=="; "!=" ])
      (int_expr st 1)
  | 2 -> Printf.sprintf "(%s && %s)" (cond st) (cond st)
  | 3 -> Printf.sprintf "(!%s)" (cond st)
  | 4 when st.k.floats && (st.fvars <> [] || st.fplaces <> []) ->
    Printf.sprintf "(%s %s %s)" (float_expr st 1)
      (pick st [ "<"; "<="; "==" ])
      (float_expr st 1)
  | _ ->
    Printf.sprintf "(%s %s %s)" (int_expr st 1)
      (pick st [ "<"; ">" ])
      (int_expr st 1)

(* ---- statements ------------------------------------------------------ *)

(* a bounded init loop writing every element of [a] *)
let init_loop st (a : arr) =
  let i = fresh st "i" in
  line st "let %s: i64 = 0;" i;
  line st "while (%s < %d) {" i a.ext;
  st.ind <- st.ind + 1;
  line st "%s[%s] = (%s * %d + %d);" a.path i i
    (1 + Prng.int st.rng 5)
    (Prng.int st.rng 9);
  line st "%s = (%s + 1);" i i;
  st.ind <- st.ind - 1;
  line st "}"

let rec emit_stmt st ~bdepth ~in_loop =
  let d = st.k.expr_depth in
  let ptr_heavy = pct st ptr_density in
  let choice = Prng.int st.rng (if bdepth > 0 then 14 else 11) in
  match choice with
  | 0 | 1 -> line st "%s = %s;" (pick st st.ints) (int_expr st d)
  | 2 ->
    let x = fresh st "x" in
    line st "let %s: i64 = %s;" x (int_expr st d);
    st.ints <- x :: st.ints
  | 3 when st.arrays <> [] ->
    let a = pick st st.arrays in
    line st "%s[%s] = %s;" a.path (index_expr st a.ext) (int_expr st (d - 1))
  | 4 when ptr_heavy && st.arrays <> [] ->
    (* derive a pointer into an array subobject; remaining extent stays a
       power of two so masking remains exact *)
    let a = pick st st.arrays in
    let c =
      if pct st 30 then a.ext - 1
      else pick st [ 0; 0; a.ext / 2 ]
    in
    let rem = a.ext - c in
    let rem = if rem land (rem - 1) <> 0 then 1 else rem in
    let q = fresh st "q" in
    line st "let %s: i64* = &%s[%d];" q a.path c;
    st.iptrs <- (q, rem) :: st.iptrs
  | 5 when st.iptrs <> [] ->
    let p, ext = pick st st.iptrs in
    line st "%s[%s] = %s;" p (index_expr st ext) (int_expr st (d - 1))
  | 6 when st.nodes <> [] ->
    let n = pick st st.nodes in
    (match Prng.int st.rng 3 with
    | 0 -> line st "%s->value = %s;" n (int_expr st (d - 1))
    | 1 -> line st "%s->tag = %s;" n (int_expr st 1)
    | _ ->
      (* guarded hop through the list: next may be null *)
      line st "if (%s->next != null(S0)) {" n;
      st.ind <- st.ind + 1;
      line st "%s->next->value = (%s->next->value + %s);" n n (int_expr st 1);
      st.ind <- st.ind - 1;
      line st "}")
  | 7 when st.k.floats && st.fvars <> [] ->
    if st.fplaces <> [] && pct st 40 then
      line st "%s = %s;" (pick st st.fplaces) (float_expr st (d - 1))
    else line st "%s = %s;" (pick st st.fvars) (float_expr st (d - 1))
  | 8 -> line st "g0 = (g0 + %s);" (int_expr st (d - 1))
  | 9 -> line st "__print_i64(%s);" (int_expr st (d - 1))
  | 10 ->
    if st.iptrs <> [] && pct st 50 then (
      let p, ext = pick st st.iptrs in
      let x = fresh st "x" in
      line st "let %s: i64 = hsum(%s, %d);" x p ext;
      st.ints <- x :: st.ints)
    else if st.nodes <> [] && pct st 50 then
      line st "%s = (%s + hchase(%s));" (pick st st.ints) (pick st st.ints)
        (pick st st.nodes)
    else if pct st 50 then
      line st "%s = hleg(%s);" (pick st st.ints) (int_expr st 1)
    else if ptr_heavy then (
      (* self-contained alloc / use / free composite *)
      let c = fresh st "c" in
      line st "let %s: i64* = malloc(i64, 4);" c;
      line st "%s[0] = %s;" c (int_expr st 1);
      line st "%s[1] = (%s[0] + 1);" c c;
      line st "%s = (%s ^ %s[1]);" (pick st st.ints) (pick st st.ints) c;
      line st "free(%s);" c)
    else line st "%s = %s;" (pick st st.ints) (int_expr st d)
  | 11 (* if *) ->
    let snap = snapshot st in
    line st "if %s {" (cond st);
    st.ind <- st.ind + 1;
    emit_block st ~bdepth:(bdepth - 1) ~in_loop ~n:(1 + Prng.int st.rng 3);
    st.ind <- st.ind - 1;
    restore st snap;
    if pct st 50 then begin
      line st "} else {";
      st.ind <- st.ind + 1;
      emit_block st ~bdepth:(bdepth - 1) ~in_loop ~n:(1 + Prng.int st.rng 2);
      st.ind <- st.ind - 1;
      restore st snap
    end;
    line st "}"
  | 12 (* counter loop, increment-last; may break *) ->
    let i = fresh st "i" in
    let bound = 2 + Prng.int st.rng 5 in
    let snap = snapshot st in
    line st "let %s: i64 = 0;" i;
    line st "while (%s < %d) {" i bound;
    st.ind <- st.ind + 1;
    emit_block st ~bdepth:(bdepth - 1) ~in_loop:true ~n:(1 + Prng.int st.rng 2);
    if pct st 25 then begin
      line st "if %s {" (cond st);
      st.ind <- st.ind + 1;
      line st "break;";
      st.ind <- st.ind - 1;
      line st "}"
    end;
    line st "%s = (%s + 1);" i i;
    st.ind <- st.ind - 1;
    restore st snap;
    line st "}"
  | 13 (* increment-first loop: continue is safe *) ->
    let i = fresh st "i" in
    let bound = 2 + Prng.int st.rng 5 in
    let snap = snapshot st in
    line st "let %s: i64 = 0;" i;
    line st "while (%s < %d) {" i bound;
    st.ind <- st.ind + 1;
    line st "%s = (%s + 1);" i i;
    line st "if %s {" (cond st);
    st.ind <- st.ind + 1;
    line st "continue;";
    st.ind <- st.ind - 1;
    line st "}";
    emit_block st ~bdepth:(bdepth - 1) ~in_loop:true ~n:(1 + Prng.int st.rng 2);
    st.ind <- st.ind - 1;
    restore st snap;
    line st "}"
  | _ ->
    ignore in_loop;
    line st "%s = %s;" (pick st st.ints) (int_expr st d)

and emit_block st ~bdepth ~in_loop ~n =
  for _ = 1 to n do
    emit_stmt st ~bdepth ~in_loop
  done

(* ---- structs --------------------------------------------------------- *)

let narrow_widths = [ "i8"; "i16"; "i32" ]

let make_metas st =
  let s0 =
    {
      sname = "S0";
      arr_ext = Some (pow2_ext st);
      narrows = [ ("tag", pick st narrow_widths) ];
      has_w = st.k.floats;
      has_inner = false;
    }
  in
  let extras =
    List.init st.k.extra_structs (fun j ->
        {
          sname = Printf.sprintf "S%d" (j + 1);
          arr_ext = (if pct st 70 then Some (pow2_ext st) else None);
          narrows =
            List.init
              (Prng.int st.rng (st.k.extra_fields + 1))
              (fun i -> (Printf.sprintf "m%d" i, pick st narrow_widths));
          has_w = st.k.floats && pct st 50;
          has_inner = pct st 50;
        })
  in
  s0 :: extras

let emit_struct st (m : smeta) =
  line st "struct %s {" m.sname;
  st.ind <- st.ind + 1;
  line st "i64 value;";
  (match m.arr_ext with
  | Some e -> line st "i64 arr[%d];" e
  | None -> ());
  if m.has_inner then line st "S0 inner;";
  List.iter (fun (f, w) -> line st "%s %s;" w f) m.narrows;
  if m.has_w then line st "f64 w;";
  if m.sname = "S0" then line st "S0* next;";
  st.ind <- st.ind - 1;
  line st "};"

(* ---- helpers --------------------------------------------------------- *)

let emit_helpers st =
  line st "i64 hmix(i64 x, i64 y) {";
  line st "  return (((x + y) ^ (x >> 3)) * 17 + 1);";
  line st "}";
  blank st;
  line st "i64 hsum(i64* p, i64 n) {";
  line st "  let acc: i64 = 0;";
  line st "  let i: i64 = 0;";
  line st "  while (i < n) {";
  line st "    acc = (acc + p[i]);";
  line st "    i = (i + 1);";
  line st "  }";
  line st "  return acc;";
  line st "}";
  blank st;
  line st "i64 hchase(S0* p) {";
  line st "  let acc: i64 = 0;";
  line st "  while (p != null(S0)) {";
  line st "    acc = (acc + p->value);";
  line st "    p = p->next;";
  line st "  }";
  line st "  return acc;";
  line st "}";
  blank st;
  line st "legacy i64 hleg(i64 x) {";
  line st "  return (x * 3 + 7);";
  line st "}";
  blank st

(* ---- program --------------------------------------------------------- *)

let source ?(knobs = default) ~seed () =
  let st =
    {
      rng = Prng.create seed;
      k = knobs;
      b = Buffer.create 4096;
      ind = 0;
      fresh = 0;
      ints = [];
      fvars = [];
      arrays = [];
      iptrs = [];
      nodes = [];
      iplaces = [];
      fplaces = [];
    }
  in
  let metas = make_metas st in
  let s0 = List.hd metas in
  let s0_ext = Option.get s0.arr_ext in
  List.iter (fun m -> emit_struct st m) metas;
  blank st;
  (* globals *)
  line st "global i64 g0;";
  let have_ga = pct st 60 in
  if have_ga then line st "global i64 ga[8];";
  let have_gs = pct st 50 in
  if have_gs then line st "global S0 gs;";
  blank st;
  emit_helpers st;
  (* main *)
  line st "i64 main() {";
  st.ind <- 1;
  if have_ga then st.arrays <- { path = "ga"; ext = 8 } :: st.arrays;
  if have_gs then begin
    st.arrays <- { path = "gs.arr"; ext = s0_ext } :: st.arrays;
    st.iplaces <- "gs.value" :: st.iplaces
  end;
  (* linked-list prologue: n1 .. n<len>, each pointing at the previous *)
  let prev = ref None in
  for _ = 1 to max 1 st.k.list_len do
    let n = fresh st "n" in
    line st "let %s: S0* = malloc(S0);" n;
    line st "%s->value = %d;" n (Prng.int st.rng 50);
    line st "%s->tag = %d;" n (Prng.int st.rng 100);
    if s0.has_w then line st "%s->w = %s;" n (pick st [ "0.5"; "2.0"; "1.25" ]);
    (match !prev with
    | None -> line st "%s->next = null(S0);" n
    | Some p -> line st "%s->next = %s;" n p);
    init_loop st { path = n ^ "->arr"; ext = s0_ext };
    st.nodes <- n :: st.nodes;
    st.iplaces <- (n ^ "->value") :: (n ^ "->tag") :: st.iplaces;
    if s0.has_w then st.fplaces <- (n ^ "->w") :: st.fplaces;
    prev := Some n
  done;
  let head = Option.get !prev in
  (* the head node's array is the always-present indexable path *)
  st.arrays <- { path = head ^ "->arr"; ext = s0_ext } :: st.arrays;
  (* heap int array *)
  let p0 = fresh st "p" in
  let p0_ext = pow2_ext st in
  line st "let %s: i64* = malloc(i64, %d);" p0 p0_ext;
  init_loop st { path = p0; ext = p0_ext };
  st.iptrs <- (p0, p0_ext) :: st.iptrs;
  st.arrays <- { path = p0; ext = p0_ext } :: st.arrays;
  (* stack int array *)
  let a0 = fresh st "a" in
  let a0_ext = pow2_ext st in
  line st "var %s: i64[%d];" a0 a0_ext;
  init_loop st { path = a0; ext = a0_ext };
  st.arrays <- { path = a0; ext = a0_ext } :: st.arrays;
  (* stack struct of a random shape *)
  let tm = pick st metas in
  let t0 = fresh st "t" in
  line st "var %s: %s;" t0 tm.sname;
  line st "%s.value = %d;" t0 (Prng.int st.rng 40);
  st.iplaces <- (t0 ^ ".value") :: st.iplaces;
  (match tm.arr_ext with
  | Some e ->
    init_loop st { path = t0 ^ ".arr"; ext = e };
    st.arrays <- { path = t0 ^ ".arr"; ext = e } :: st.arrays
  | None -> ());
  List.iter
    (fun (f, _) ->
      line st "%s.%s = %d;" t0 f (Prng.int st.rng 60);
      st.iplaces <- Printf.sprintf "%s.%s" t0 f :: st.iplaces)
    tm.narrows;
  if tm.has_w then begin
    line st "%s.w = 1.5;" t0;
    st.fplaces <- (t0 ^ ".w") :: st.fplaces
  end;
  if tm.has_inner then begin
    line st "%s.inner.value = %d;" t0 (Prng.int st.rng 30);
    st.iplaces <- (t0 ^ ".inner.value") :: st.iplaces;
    init_loop st { path = t0 ^ ".inner.arr"; ext = s0_ext };
    st.arrays <- { path = t0 ^ ".inner.arr"; ext = s0_ext } :: st.arrays
  end;
  (* integer and float registers *)
  for _ = 1 to 3 do
    let x = fresh st "x" in
    line st "let %s: i64 = %d;" x (Prng.int st.rng 32);
    st.ints <- x :: st.ints
  done;
  if st.k.floats then begin
    let f = fresh st "f" in
    line st "let %s: f64 = %s;" f (pick st [ "0.75"; "2.5"; "1.0" ]);
    st.fvars <- [ f ]
  end;
  blank st;
  (* random body *)
  for _ = 1 to st.k.stmts do
    emit_stmt st ~bdepth:st.k.block_depth ~in_loop:false
  done;
  blank st;
  (* temporal-fault composite (knob-gated; no PRNG draws when off, so
     seeds yield byte-identical source with [temporal = false]): park a
     node pointer in a heap holder, free it, churn with a same-typed
     allocation so a recycling allocator re-issues the chunk, then
     reload the stale pointer from memory and misuse it. The memory
     round-trip matters: the reload is a promote, which is where the
     generation check lives — register-resident stale pointers are the
     documented blind spot. *)
  if st.k.temporal then begin
    let h = fresh st "h" and d = fresh st "d" and e = fresh st "e" in
    line st "let %s: S0* = malloc(S0);" h;
    line st "%s->next = null(S0);" h;
    line st "let %s: S0* = malloc(S0);" d;
    line st "%s->value = %d;" d (Prng.int st.rng 50);
    line st "%s->next = null(S0);" d;
    line st "%s->next = %s;" h d;
    line st "free(%s);" d;
    line st "let %s: S0* = malloc(S0);" e;
    line st "%s->value = %d;" e (Prng.int st.rng 50);
    line st "%s->next = null(S0);" e;
    (match Prng.int st.rng 3 with
    | 0 -> line st "g0 = (g0 + %s->next->value);" h (* use after free *)
    | 1 -> line st "%s->next->value = %d;" h (Prng.int st.rng 9)
      (* write to freed *)
    | _ -> line st "free(%s->next);" h (* double free *));
    blank st
  end;
  (* checksum epilogue: fold every piece of data into acc *)
  line st "let acc: i64 = g0;";
  List.iter (fun x -> line st "acc = (acc * 31 + %s);" x) st.ints;
  List.iter (fun pl -> line st "acc = (acc * 31 + %s);" pl) st.iplaces;
  List.iter
    (fun (a : arr) ->
      let i = fresh st "i" in
      line st "let %s: i64 = 0;" i;
      line st "while (%s < %d) {" i a.ext;
      st.ind <- st.ind + 1;
      line st "acc = ((acc * 31) ^ %s[%s]);" a.path i;
      line st "%s = (%s + 1);" i i;
      st.ind <- st.ind - 1;
      line st "}")
    st.arrays;
  line st "acc = (acc + hchase(%s));" head;
  List.iter
    (fun f ->
      line st "if (%s < 100000.0) {" f;
      st.ind <- st.ind + 1;
      line st "acc = (acc + 1);";
      st.ind <- st.ind - 1;
      line st "}")
    (st.fvars @ st.fplaces);
  line st "__print_i64(acc);";
  line st "__print_i64(g0);";
  line st "return (acc & 0xffff);";
  st.ind <- 0;
  line st "}";
  Buffer.contents st.b

let generate ?(knobs = default) ~seed () =
  match
    Ifp_compiler.Frontend.check
      ~file:(Printf.sprintf "<seed %Ld>" seed)
      (source ~knobs ~seed ())
  with
  | Ok prog -> prog
  | Error m -> raise (Gen_bug m)
