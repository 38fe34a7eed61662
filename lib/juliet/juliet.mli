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

    The experimental question is the paper's: every bad case must trap
    under In-Fat Pointer, every good case must pass, and the baseline
    must stay silent on (almost all of) the bad cases. Intra-object cases
    additionally separate subobject granularity from object granularity:
    object-level schemes (and the no-promote control) cannot catch
    them. *)

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
val place_to_string : place -> string
val flow_to_string : flow -> string

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

type verdict = Detected | Silent | Error of string

type outcome = {
  case : case;
  bad_verdict : verdict;  (** what happened on the bad program *)
  good_ok : bool;  (** the good program finished cleanly *)
}

type summary = {
  total : int;
  detected : int;
  missed : int;
  good_failures : int;
}

val run_all : config:Ifp_vm.Vm.config -> case list -> outcome list * summary

val run_all_with :
  run:(case -> [ `Good | `Bad ] -> Ifp_vm.Vm.result) ->
  case list ->
  outcome list * summary
(** Like {!run_all}, but the per-program results come from [run] — the
    hook the campaign engine uses to serve cached/parallel results while
    the verdict logic stays here. *)
