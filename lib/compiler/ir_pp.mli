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
