(** A benchmark workload: a MiniC program port, structurally faithful to
    the corresponding program of the paper's evaluation (§5.2) — same
    data-structure shapes, allocation behaviour and pointer-use patterns,
    scaled to simulator-friendly sizes. Its source is
    [lib/workloads/NAME.minic], checked and compiled in at build time.

    Every workload's [main] returns a checksum; all VM variants must
    produce the same value (checked by the test suite). *)

type t = {
  name : string;  (** paper's name, e.g. "treeadd" *)
  suite : string;  (** "olden", "ptrdist" or "misc" *)
  description : string;
  prog : Ifp_compiler.Ir.program Lazy.t;
}
