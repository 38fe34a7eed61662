(** Textual frontend for MiniC: a C-like surface syntax parsed (with
    local type inference) into {!Ir} programs. The paper workloads
    ([lib/workloads/*.minic]) and most tests are written in it; the
    generated IR is exactly what the combinator DSL produces, so
    everything downstream (typechecker, instrumentation, VM) is shared.

    Syntax sketch:

    {v
    struct node { i64 value; node* next; i64 pad[2]; };
    global i64 counter;
    global node* head;

    i64 sum(node* p) {
      let acc: i64 = 0;
      while (p != null(node)) {
        acc = acc + p->value;
        p = p->next;
      }
      return acc;
    }

    legacy i64* lib_pass(i64* p) { return p; }   // uninstrumented

    i64 main() {
      var buf: i64[8];                            // stack local
      buf[3] = 7;
      let n: node* = malloc(node);                // malloc(node, k) for arrays
      n->value = buf[3];
      head = n;
      return sum(head) + counter;
    }
    v}

    Notes: struct types are referenced by bare name; a type is a base
    name followed by ['*']s, each of which may follow the extents of the
    array it points to, in a declaration's order ([i64[4][2]*] points to
    what [var x: i64[4][2]] declares); extents with no ['*'] after them
    end only the type of a [var] or a [malloc] ([malloc(i64[12], 1)]
    allocates one array of 12); a pointer [p] to an array is indexed
    ["(*p)[i]"], since [p[i]] is pointer arithmetic; [var] declares a stack local (address-taken /
    aggregate), [let] a register local;
    assignments infer the store type from the lvalue; [+ - * /] map to
    float operations when an operand is [f64]; [cast(T, e)] converts;
    [malloc_bytes(e)] is the type-erased allocation. Line comments [//]
    and block comments are supported.

    The source is lexed once ({!Lexer.create}); three passes walk the
    token array: a pre-scan for struct names, a pass for struct layouts,
    globals and function signatures, and the full parse. Expressions,
    prefix operators and blocks may nest at most 256 deep; deeper input
    is the located [Parse_error "nesting deeper than 256"]. An error is
    located at the line of the lookahead token when it is raised. The
    pre-rewrite lexer and parser are kept verbatim in [test/spec] as the
    specification this one is checked against. *)

exception Parse_error of string * int  (** message, line *)

val parse : string -> Ir.program
(** @raise Parse_error on syntax or local-typing errors. The result is
    not yet checked by {!Typecheck} — callers (e.g. {!Ifp_vm.Vm.run}) do
    that. *)
