(** Textual frontend for MiniC: a C-like surface syntax parsed (with
    local type inference) into {!Ir} programs. This is the convenient way
    to write workloads and tests; the generated IR is exactly what the
    combinator DSL produces, so everything downstream (typechecker,
    instrumentation, VM) is shared.

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

    Notes: struct types are referenced by bare name; [var] declares a
    stack local (address-taken / aggregate), [let] a register local;
    assignments infer the store type from the lvalue; [+ - * /] map to
    float operations when an operand is [f64]; [cast(T, e)] converts;
    [malloc_bytes(e)] is the type-erased allocation. Line comments [//]
    and block comments are supported. *)

exception Parse_error of string * int  (** message, line *)

val parse : string -> Ir.program
(** @raise Parse_error on syntax or local-typing errors. The result is
    not yet checked by {!Typecheck} — callers (e.g. {!Ifp_vm.Vm.run}) do
    that. *)
