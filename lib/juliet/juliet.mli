(** Synthetic Juliet-style test suite for the functional evaluation
    (paper §5.1).

    NIST Juliet 1.3 itself is C source and cannot be compiled here, so we
    generate the equivalent experiment: for every combination of defect
    kind (buffer overflow / underwrite / overread / underread /
    intra-object overflow), object placement (stack / heap) and data-flow
    variant (direct index, loop bound, pointer arithmetic, access through
    a callee, access through a global pointer — mirroring Juliet's flow
    variants), a {e good} program that stays in bounds and a {e bad}
    program whose only difference is the out-of-bounds access.

    A case yields two {!Ifp_faultinject.Verdict} rows ({!rows}): its
    bad program expecting [Detect], its good program expecting [Pass].
    The experimental question is the paper's: every bad program must be
    [Detected] under In-Fat Pointer, every good program must finish,
    and the baseline must stay [Silent] on (almost all of) the bad
    programs. Intra-object cases additionally separate subobject
    granularity from object granularity: object-level schemes (and the
    no-promote control) cannot catch them. *)

type kind =
  | Overflow
  | Underwrite
  | Overread
  | Underread
  | Intra_object
  | Nested_intra
      (** intra-object overflow inside an array-of-struct element —
          exercises the recursive walker with element-base snapping *)
  | Use_after_free
  | Write_to_freed
  | Double_free
      (** temporal kinds (CWE-416/415) — only produced by
          {!temporal_cases}, never by {!all_cases} *)

type place = Stack | Heap

type flow =
  | Direct
  | Loop
  | Ptr_arith
  | Via_call
  | Via_global
  | Via_field
      (** pointer round-trips through a heap struct field (demote +
          promote), the heap analogue of [Via_global] *)

type case = {
  id : string;
  kind : kind;
  place : place;
  flow : flow;
  good : Ifp_compiler.Ir.program;
  bad : Ifp_compiler.Ir.program;
}

val kind_to_string : kind -> string

val all_cases : unit -> case list
(** The full cross product (72 cases: 6 kinds x 2 places x 6 flows),
    each with a good and a bad program. Spatial kinds only — the
    temporal families live in {!temporal_cases} so every existing
    spatial run (fig10, goldens) is unchanged. *)

val temporal_cases : unit -> case list
(** The temporal families (6 cases: use-after-free / write-to-freed /
    double-free, each via a heap field and via a global). The bad
    variant frees the buffer, churns the heap with a same-sized
    allocation (so a recycling allocator hands the chunk to a new
    object), then reloads the stale pointer from memory and uses it;
    the good variant is identical but frees after the use. Detection
    requires temporal mode ({!Ifp_vm.Vm.config}[.temporal]): a
    spatial-only configuration promotes the stale pointer against the
    churn object's valid metadata and stays silent. *)

val program : case -> Ifp_faultinject.Verdict.expect -> Ifp_compiler.Ir.program
(** The bad program of a case for [Detect], the good one for [Pass]. *)

val rows :
  config:string ->
  run:(case -> Ifp_faultinject.Verdict.expect -> Ifp_vm.Vm.result) ->
  case list ->
  case Ifp_faultinject.Verdict.row list
(** The verdict rows of [cases] under the config named [config]: for
    each case its bad program expecting [Detect], then its good one
    expecting [Pass], with the results [run] gives — a direct
    [Vm.run] of {!program}, or the campaign's cached results. Any trap
    is the expected one. *)
