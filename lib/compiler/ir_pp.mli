(** Surface-syntax printer for MiniC programs.

    [program_to_string] emits text in the language {!Parser} reads, so
    printed programs round-trip: for any program in the parser's image
    (everything the fuzz generator emits, and anything produced by
    [Parser.parse]), re-parsing the output yields an
    [Ir.equal_program]-equal program, and the printer is injective on
    well-typed programs — the property {!Ifp_campaign.Job}'s
    content-addressed digests rely on.

    Constructs with no surface form — the [Ifp_*] nodes the
    instrumentation pass inserts, [Malloc_sized], uncoerced [I2F]/[F2I],
    special float values — print in distinctive call-like spellings
    ([IFP_Promote(e)], [malloc_sized(t, n)], [i2f(e)], [f64_bits(0x…)],
    matching the paper's Listing 2 presentation) that lex but do not
    re-parse; they appear only in debug dumps. *)

val program_to_string : Ir.program -> string

val float_lit : float -> string
(** The literal [program_to_string] prints for a float: the shortest
    digits-dot-digits text the lexer reads back to the same bits, or the
    non-parseable [f64_bits(0x…)] for negative, non-finite and
    negative-zero values. Job digests hash this text, so its output for
    a given float never changes. *)
