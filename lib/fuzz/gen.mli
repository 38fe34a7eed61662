(** Seeded, size-bounded MiniC program generator for differential
    fuzzing.

    The generator emits {e surface-syntax text} built by a typed
    construction discipline — every variable, lvalue path and operand is
    tracked with its type, array extents are powers of two and every
    dynamic index is masked to its extent, divisions and shifts are
    guarded, loops are bounded — so every generated program parses,
    typechecks and terminates by construction. {!generate} additionally
    runs the real parser and typechecker and raises {!Gen_bug} on any
    violation, so a generator bug can never masquerade as an engine
    divergence.

    Generated programs are memory-safe: under the differential oracles
    ({!Oracle}) the baseline and IFP configurations must behave
    identically on them, and every engine must agree bit-for-bit.

    Every program calls helper functions (a legacy one among them) and
    grazes boundaries (index 0, extent-1 and full-extent loops, not
    only masked random indices). A statement draw allows pointer
    derivation and allocation 40% of the time.

    Everything is driven by one {!Ifp_util.Prng} stream: the same
    [seed × knobs] always yields byte-identical source. *)

type knobs = {
  stmts : int;  (** statement budget for main's random section *)
  expr_depth : int;  (** max expression nesting depth *)
  block_depth : int;  (** max if/while nesting depth *)
  extra_structs : int;  (** struct types beyond the fixed node struct S0 *)
  extra_fields : int;  (** max extra narrow scalar fields per struct *)
  floats : bool;  (** include f64 locals, fields and float arithmetic *)
  list_len : int;  (** length of the linked-list prologue (>= 1) *)
  temporal : bool;
      (** emit one deliberate temporal-fault composite (use-after-free,
          write-to-freed or double-free, chosen by the seed): the pointer
          round-trips through heap memory and the freed chunk is churned
          with a same-typed allocation, so a temporal-mode run traps at
          the promote/access while baseline and spatial-only IFP run to
          completion. Programs generated with this knob are deliberately
          NOT memory-safe — feed them to {!Oracle.check_temporal} with
          [~expect_fault:true], never to {!Oracle.check}. Off by default;
          when off, no extra PRNG draws happen, so a given seed yields
          byte-identical source either way. *)
}

val default : knobs
(** The campaign shape: ~40-line programs covering every statement and
    expression form. *)

val quick : knobs
(** Smaller programs for smoke tests and CI. *)

exception Gen_bug of string
(** A generated program failed to parse or typecheck — a bug in the
    generator itself, never a property of the engines under test. *)

val source : ?knobs:knobs -> seed:int64 -> unit -> string
(** The generated MiniC source text. Deterministic in [seed] and
    [knobs]. *)

val generate : ?knobs:knobs -> seed:int64 -> unit -> Ifp_compiler.Ir.program
(** [source] fed through the real front end, {!Ifp_compiler.Frontend}.
    @raise Gen_bug if either rejects the program. *)
