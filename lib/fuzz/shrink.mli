(** Greedy structural counterexample minimizer that terminates by
    construction.

    Every candidate edit strictly decreases one well-founded measure,
    compared lexicographically:
    + the number of nodes: functions, globals, structs, statements and
      expression nodes;
    + the number of expression nodes that are not [Int] literals;
    + the sum of |k| over [Int] literals, compared unsigned.

    The edits, coarsest first:
    + drop a whole non-[main] function, global, or struct;
    + delete one statement (at any nesting depth), or unwrap an [if] to
      one of its branches or a [while] to its body;
    + replace a literal [k] by [0], [1] or [k/2], whichever is smaller
      in magnitude ([0] is never edited), or any other expression by
      [0], [1] or one of its direct subexpressions.

    A pass visits the edit sites in that order, each body in pre-order,
    and tries each site's candidates in turn. When [keep] accepts one,
    the pass resumes at the same site position of the new program. A
    pass that accepted an edit is followed by another from the top; a
    pass that accepted none ends the search, so the result is
    1-minimal: [keep] rejects every candidate of it. There is no budget:
    the measure bounds the number of accepted edits.

    Candidates are not guaranteed well-typed — [keep] is expected to
    reject anything that fails to re-parse or re-typecheck (the fuzz
    driver's predicate prints, re-parses, re-typechecks and re-runs the
    oracle battery, so minimized repros are parser-image programs whose
    failure key is preserved by construction). *)

val minimize :
  keep:(Ifp_compiler.Ir.program -> bool) ->
  Ifp_compiler.Ir.program ->
  Ifp_compiler.Ir.program
(** [keep] is meant to hold for the input, and is not called on it: if
    [keep] rejects every candidate, the input is returned. *)
